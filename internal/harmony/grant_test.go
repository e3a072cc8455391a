package harmony

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"paratune/internal/alloccheck"
	"paratune/internal/dist"
	"paratune/internal/objective"
	"paratune/internal/space"
)

// batchAPI is the batched surface the in-process Server and the wire Client
// share.
type batchAPI interface {
	Register(session string, params []space.Parameter) error
	FetchN(session string, n int) ([]FetchResult, error)
	ReportN(session string, items []ReportItem) (BatchReportResult, error)
	Best(session string) (space.Point, float64, bool, error)
}

// singleOp drives a server through its single-op calls: each FetchN is one
// Fetch and each ReportN one Report per item.
type singleOp struct{ *Server }

func (o singleOp) FetchN(session string, _ int) ([]FetchResult, error) {
	fr, err := o.Fetch(session)
	return []FetchResult{fr}, err
}

func (o singleOp) ReportN(session string, items []ReportItem) (BatchReportResult, error) {
	var res BatchReportResult
	for _, it := range items {
		if err := o.Report(session, it.Tag, it.Value); err != nil {
			return res, err
		}
		res.Accepted++
	}
	return res, nil
}

// batchRun is what one closed FetchN/ReportN loop ended with.
type batchRun struct {
	best     space.Point
	bestBits uint64
	accepted int
	fetches  int // FetchN calls that granted work
}

// driveBatched registers name and runs the closed loop a benchmark client
// runs: fetch up to n samples, measure each with seeded Pareto noise in the
// order received, report them all, until the session converges.
func driveBatched(t *testing.T, api batchAPI, name string, f objective.Function, seed int64, n int) batchRun {
	t.Helper()
	if err := api.Register(name, gs2Params()); err != nil {
		t.Fatal(err)
	}
	model := mustPareto(t, 1.7, 0.2)
	rng := dist.NewRNG(seed)
	var run batchRun
	items := make([]ReportItem, 0, n)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		frs, err := api.FetchN(name, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(frs) == 1 && frs[0].Tag == 0 {
			if !frs[0].Converged {
				t.Fatal("Tag-0 fetch before convergence")
			}
			best, val, _, err := api.Best(name)
			if err != nil {
				t.Fatal(err)
			}
			run.best, run.bestBits = best, math.Float64bits(val)
			return run
		}
		run.fetches++
		items = items[:0]
		for _, fr := range frs {
			items = append(items, ReportItem{Tag: fr.Tag, Value: model.Perturb(f.Eval(fr.Point), rng)})
		}
		res, err := api.ReportN(name, items)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rejected+res.Refused != 0 {
			t.Fatalf("n=%d: a client reporting everything it fetched had %+v", n, res)
		}
		run.accepted += res.Accepted
	}
	t.Fatalf("n=%d: session did not converge", n)
	return run
}

// TestFetchNGrantMatchesSinglePass is the differential test of the K-aware
// grant rule: a client that reports everything it fetched follows the same
// trajectory — best point, best-estimate bits and accepted measurements — at
// every batch size as at n=1, and larger frames need fewer round trips. A
// single-op Fetch/Report client follows the n=1 trajectory round trip for
// round trip, and hands out the same tags when reports interleave with
// in-flight samples.
func TestFetchNGrantMatchesSinglePass(t *testing.T) {
	f := objective.GenerateGS2(objective.GS2Config{Seed: 5, Coverage: 1})
	for _, seed := range []int64{1, 2, 3} {
		for _, k := range []int{1, 3} {
			t.Run(fmt.Sprintf("seed%d/K%d", seed, k), func(t *testing.T) {
				srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, k)})
				defer srv.Close()
				runAt := func(n int) batchRun {
					return driveBatched(t, srv, fmt.Sprintf("n%d", n), f, seed, n)
				}
				want := runAt(1)
				if got := driveBatched(t, singleOp{srv}, "single", f, seed, 1); got.fetches != want.fetches ||
					!got.best.Equal(want.best) || got.bestBits != want.bestBits || got.accepted != want.accepted {
					t.Errorf("Fetch/Report: best %v (bits %x), %d accepted in %d fetches; n=1: best %v (bits %x), %d accepted in %d fetches",
						got.best, got.bestBits, got.accepted, got.fetches, want.best, want.bestBits, want.accepted, want.fetches)
				}
				for _, n := range []int{3, 16, 64} {
					got := runAt(n)
					if !got.best.Equal(want.best) || got.bestBits != want.bestBits || got.accepted != want.accepted {
						t.Errorf("n=%d: best %v (bits %x), %d accepted; n=1: best %v (bits %x), %d accepted",
							n, got.best, got.bestBits, got.accepted, want.best, want.bestBits, want.accepted)
					}
					if got.fetches >= want.fetches {
						t.Errorf("n=%d took %d fetches, n=1 took %d", n, got.fetches, want.fetches)
					}
				}
			})
		}
	}
	// The wire path encodes grants from a reused per-connection slice; the
	// trajectory must not notice.
	t.Run("wire/binary", func(t *testing.T) {
		srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 3)})
		defer srv.Close()
		want := driveBatched(t, srv, "in", f, 7, 1)
		c, _ := dialTest(t, srv)
		got := driveBatched(t, c, "wire", f, 7, 16)
		if !got.best.Equal(want.best) || got.bestBits != want.bestBits || got.accepted != want.accepted {
			t.Errorf("wire n=16: best %v (bits %x), %d accepted; in-process n=1: best %v (bits %x), %d accepted",
				got.best, got.bestBits, got.accepted, want.best, want.bestBits, want.accepted)
		}
	})
	// One grant rule: a report landing while another sample is in flight —
	// fetch and report, fetch and hold, then eight more fetches — and Fetch
	// hands out the same tags as FetchN(1).
	t.Run("interleaved", func(t *testing.T) {
		srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 2)})
		defer srv.Close()
		script := func(name string, grant func() (FetchResult, error)) []uint64 {
			if err := srv.Register(name, gs2Params()); err != nil {
				t.Fatal(err)
			}
			pendingBatch(t, srv, name, 1)
			var tags []uint64
			for i := 0; i < 10; i++ {
				fr, err := grant()
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					if err := srv.Report(name, fr.Tag, 1); err != nil {
						t.Fatal(err)
					}
				}
				if i >= 2 {
					tags = append(tags, fr.Tag)
				}
			}
			return tags
		}
		single := script("fetch", func() (FetchResult, error) { return srv.Fetch("fetch") })
		batched := script("fetchn", func() (FetchResult, error) {
			frs, err := srv.FetchN("fetchn", 1)
			if err != nil {
				return FetchResult{}, err
			}
			return frs[0], nil
		})
		if !slices.Equal(single, batched) {
			t.Errorf("Fetch handed out tags %v, FetchN(1) %v", single, batched)
		}
	})
}

// TestFetchNDrainsBatchInOneRoundTrip pins the point of the grant rule: at
// min-of-K a P-candidate batch with K·P ≤ n is fetched pass-major in one
// FetchN, slot j of every candidate in pass j, and completed by one ReportN.
// Resending that ReportN is idempotent: the tags are retired, so every item
// is accepted and nothing is recorded.
func TestFetchNDrainsBatchInOneRoundTrip(t *testing.T) {
	const k, n = 3, 64
	srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, k)})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	p := pendingBatch(t, srv, "s", 1)
	if k*p > n {
		t.Fatalf("first batch has %d candidates; K·P = %d exceeds n = %d", p, k*p, n)
	}
	frs, err := srv.FetchN("s", n)
	if err != nil {
		t.Fatal(err)
	}
	if len(frs) != k*p {
		t.Fatalf("FetchN(%d) granted %d samples, want K·P = %d", n, len(frs), k*p)
	}
	for i, fr := range frs {
		// Candidate c's slot j is tag base + c·K + j, and pass j grants it
		// as sample j·P + c.
		c, j := i%p, i/p
		if want := frs[0].Tag + uint64(c*k+j); fr.Tag != want || !fr.Point.Equal(frs[c].Point) {
			t.Fatalf("sample %d is tag %d at %v, want pass-major slot tag %d at %v", i, fr.Tag, fr.Point, want, frs[c].Point)
		}
	}
	items := make([]ReportItem, len(frs))
	for i, fr := range frs {
		items[i] = ReportItem{Tag: fr.Tag, Value: 1 + float64(i)}
	}
	res, err := srv.ReportN("s", items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != len(items) || res.Rejected+res.Refused != 0 {
		t.Fatalf("ReportN = %+v, want all %d accepted", res, len(items))
	}
	// The batch is complete and its tags retired: a resend of the whole
	// frame is accepted and records nothing in the next batch.
	late, err := srv.ReportN("s", items)
	if err != nil {
		t.Fatal(err)
	}
	if late != (BatchReportResult{Accepted: len(items)}) {
		t.Errorf("resent frame for the completed batch = %+v, want all %d accepted", late, len(items))
	}
	s := srv.lookup("s")
	s.mu.Lock()
	recorded := s.batchObs
	s.mu.Unlock()
	if recorded != 0 {
		t.Errorf("the resent frame recorded %d measurements in the next batch", recorded)
	}
}

// TestFetchNConcurrentFetchersDisjoint checks that two fetchers racing on
// one batch get disjoint unissued slots — together every slot, K of every
// candidate — and that only then FetchN falls back to reissuing each
// unmeasured candidate's first slot once.
func TestFetchNConcurrentFetchersDisjoint(t *testing.T) {
	const k = 3
	srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, k)})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	p := pendingBatch(t, srv, "s", 1)
	half := (k*p + 1) / 2
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		got   [2][]FetchResult
		errs  [2]error
	)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = srv.FetchN("s", half)
		}(i)
	}
	close(start)
	wg.Wait()
	s := srv.lookup("s")
	s.mu.Lock()
	base := s.cands[0].tag
	s.mu.Unlock()
	issued := map[uint64]bool{}
	perCand := map[uint64]int{}
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for _, fr := range got[i] {
			if fr.Tag < base || issued[fr.Tag] {
				t.Fatalf("fetcher %d got tag %d, not a fresh slot of the batch at %d", i, fr.Tag, base)
			}
			issued[fr.Tag] = true
			perCand[(fr.Tag-base)/k]++
		}
	}
	if len(issued) != k*p || len(perCand) != p {
		t.Fatalf("fetchers got %d slots of %d candidates, want %d of %d", len(issued), len(perCand), k*p, p)
	}
	for c, n := range perCand {
		if n != k {
			t.Errorf("candidate %d had %d slots issued across both fetchers, want exactly %d", c, n, k)
		}
	}
	// Everything is issued and nothing measured: the fallback reissues each
	// candidate's first slot once.
	again, err := srv.FetchN("s", 64)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, fr := range again {
		if !issued[fr.Tag] || (fr.Tag-base)%k != 0 || seen[fr.Tag] {
			t.Fatalf("fallback grant %+v is not each candidate's slot 0 once", again)
		}
		seen[fr.Tag] = true
	}
	if len(seen) != p {
		t.Errorf("fallback reissued %d candidates, want %d", len(seen), p)
	}
}

// TestReportNOversizedFrameCountsEveryItem pins that items past maxBatchOps
// are counted as Refused (retryable), so the three counts sum to the frame.
func TestReportNOversizedFrameCountsEveryItem(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	items := make([]ReportItem, maxBatchOps+5)
	for i := range items {
		items[i] = ReportItem{Value: 1} // tag 0: accepted and ignored
	}
	check := func(how string, res BatchReportResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != maxBatchOps || res.Refused != 5 || res.Rejected != 0 {
			t.Errorf("%s: oversized frame = %+v, want %d accepted / 5 refused", how, res, maxBatchOps)
		}
	}
	res, err := srv.ReportN("s", items)
	check("in-process", res, err)
	c, _ := dialTest(t, srv)
	res, err = c.ReportN("s", items)
	check("binary wire", res, err)
}

// TestDispatchBatchAllocs pins the steady-state batch path: against a warm
// session, dispatching fetchn(16) and reportn(16) frames allocates nothing.
// Each guarded reportn fills the 16 slots one guarded fetchn granted, with
// items as Client.ReportN sends them. The estimator's K only has to leave
// every guarded fetch 16 fresh slots, so the batch never completes.
func TestDispatchBatchAllocs(t *testing.T) {
	const runs = 101 // testing.AllocsPerRun(100, f) calls f once more to warm up
	srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 4096)})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	pendingBatch(t, srv, "s", 1)
	var grant []FetchResult
	fetch := request{Op: opFetchN, Session: "s", N: 16}
	items := make([]ReportItem, 16)
	report := request{Op: opReportN, Session: "s", Reports: items}
	var resp response
	dispatchOK := func(req *request) {
		req.Seq++
		if resp = dispatch(srv, req, &grant); !resp.OK {
			t.Fatalf("%s: %s", req.Op, resp.Error)
		}
	}
	// tags holds every slot a fetch granted, in grant order; sent counts
	// those already reported.
	tags := make([]uint64, 0, 16*(runs+1))
	sent := 0
	fetchN := func() {
		dispatchOK(&fetch)
		for i := range resp.Batch {
			tags = append(tags, resp.Batch[i].Tag)
		}
	}
	reportN := func() {
		for i := range items {
			items[i] = ReportItem{Tag: tags[sent+i], Value: float64(sent + i + 1)}
		}
		sent += len(items)
		dispatchOK(&report)
	}
	fetchN() // grows the grant and registers the client
	reportN()
	alloccheck.Guard(t, "harmony.dispatch/fetchn16", 0, fetchN)
	if len(resp.Batch) != 16 || resp.Batch[0].Tag == 0 || len(tags) != 16*(runs+1) {
		t.Fatalf("fetchn(16) granted %+v, %d slots in all", resp.Batch, len(tags))
	}
	alloccheck.Guard(t, "harmony.dispatch/reportn16", 0, reportN)
	if resp.Accepted != 16 {
		t.Fatalf("reportn(16) = %+v, want 16 accepted", resp)
	}
	s := srv.lookup("s")
	s.mu.Lock()
	recorded := s.batchObs
	s.mu.Unlock()
	if recorded != len(tags) {
		t.Errorf("the session recorded %d measurements, want one per granted slot, %d", recorded, len(tags))
	}
}
