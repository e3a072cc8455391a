package harmony

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"paratune/internal/measuredb"
)

// pendingBatch returns the named session's pending candidate count, failing
// unless it is at least n: Register returns only once the optimiser has
// proposed its first batch.
func pendingBatch(t *testing.T, srv *Server, name string, n int) int {
	t.Helper()
	st, err := srv.Stats(name)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending < n {
		t.Fatalf("session %q has %d pending candidates, want at least %d", name, st.Pending, n)
	}
	return st.Pending
}

// TestSessionsSortedAcrossShards registers enough sessions to populate many
// shards and pins the Sessions contract: sorted names, every one resolvable,
// and removal visible immediately.
func TestSessionsSortedAcrossShards(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	var want []string
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("fleet-%02d", i)
		if err := srv.Register(name, gs2Params()); err != nil {
			t.Fatal(err)
		}
		want = append(want, name)
	}
	got := srv.Sessions()
	if !sort.StringsAreSorted(got) {
		t.Error("Sessions() not sorted")
	}
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("Sessions() = %d names, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sessions()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, name := range want {
		if _, err := srv.Stats(name); err != nil {
			t.Fatalf("session %q unreachable: %v", name, err)
		}
	}
	// Re-registration joins when the space matches and is refused when it
	// differs, regardless of which shard owns the name.
	if err := srv.Register("fleet-12", gs2Params()); err != nil {
		t.Errorf("same-space join refused: %v", err)
	}
	if err := srv.Register("fleet-12", gs2Params()[:1]); err == nil {
		t.Error("different-space re-registration accepted")
	}
}

// TestFetchNDisjointWork pins the round-robin contract at K=1, where every
// candidate needs one sample: one batched fetch hands out distinct
// candidates, and once every sample is issued, consecutive fetches fall back
// to reissuing unmeasured candidates around the ring instead of the same
// least-measured one. The K-aware grant itself (several samples of a
// candidate per frame, pass-major) is pinned in grant_test.go.
func TestFetchNDisjointWork(t *testing.T) {
	srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 1)})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	pending := pendingBatch(t, srv, "s", 2)

	batch, err := srv.FetchN("s", pending)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != pending {
		t.Fatalf("FetchN granted %d candidates, want %d", len(batch), pending)
	}
	seen := map[uint64]bool{}
	for _, fr := range batch {
		if fr.Tag == 0 {
			t.Fatal("FetchN returned tag 0 while candidates were outstanding")
		}
		if seen[fr.Tag] {
			t.Fatalf("FetchN issued tag %d twice in one batch", fr.Tag)
		}
		seen[fr.Tag] = true
	}

	// The cursor advances: two single fetches issue different candidates.
	a, err := srv.FetchN("s", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.FetchN("s", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Tag == b[0].Tag {
		t.Errorf("consecutive FetchN(1) both issued tag %d; round-robin cursor stuck", a[0].Tag)
	}

	// Once every candidate is measured the batch completes and FetchN falls
	// back to the single best-known point with tag 0.
	for tag := range seen {
		if err := srv.Report("s", tag, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	fin, err := srv.FetchN("s", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(fin) != 1 || fin[0].Tag != 0 {
		// A fresh batch may already be out after completion; tag-0 fallback
		// only applies when nothing is outstanding, so accept either a new
		// batch or the fallback — but never an empty result.
		if len(fin) == 0 {
			t.Error("FetchN returned no work at all")
		}
	}
}

// TestReportNClassification pins per-item classification: one bad measurement
// must not void the rest of the frame.
func TestReportNClassification(t *testing.T) {
	srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 1)})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	pendingBatch(t, srv, "s", 2)
	batch, err := srv.FetchN("s", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) < 2 || batch[0].Tag == 0 {
		t.Fatalf("need 2 tagged candidates, got %+v", batch)
	}
	res, err := srv.ReportN("s", []ReportItem{
		{Tag: batch[0].Tag, Value: 1.5},
		{Tag: batch[0].Tag, Value: 1.5}, // resend of a filled slot: accepted
		{Tag: batch[1].Tag, Value: -4},  // invalid value: rejected
		{Tag: 999999, Value: 2.0},       // tag never issued: rejected
		{Tag: batch[1].Tag, Value: 2.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 3 || res.Rejected != 2 || res.Refused != 0 {
		t.Errorf("classification = %+v, want 3 accepted / 2 rejected / 0 refused", res)
	}
	if _, err := srv.ReportN("ghost", nil); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("unknown session error not classified: %v", err)
	}
}

// TestSurplusReportsAccepted pins the surplus contract: a report of a new
// value for a filled slot is accepted and written to the store, but never
// estimated, so a client cannot grow any per-session buffer however many it
// sends; a resend of the slot's own value is accepted and records nothing.
func TestSurplusReportsAccepted(t *testing.T) {
	db := measuredb.NewMemory(measuredb.Options{})
	srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 1), DB: db})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	pendingBatch(t, srv, "s", 2)
	batch, err := srv.FetchN("s", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) < 2 || batch[0].Tag == 0 {
		t.Fatalf("need 2 tagged candidates, got %+v", batch)
	}
	tag, pt := batch[0].Tag, batch[0].Point

	// K=1: the first report fills the candidate's one slot; a new value
	// for it is surplus, and the slot's own value again is a resend.
	for i, v := range []float64{1, 2, 3, 1} {
		if err := srv.Report("s", tag, v); err != nil {
			t.Fatalf("report %d refused: %v", i, err)
		}
	}
	items := make([]ReportItem, 5)
	for i := range items {
		items[i] = ReportItem{Tag: tag, Value: float64(4 + i%4)} // 4, 5, 6, 7, then a surplus 4 again
	}
	res, err := srv.ReportN("s", items)
	if err != nil {
		t.Fatal(err)
	}
	if res != (BatchReportResult{Accepted: 5}) {
		t.Errorf("surplus ReportN = %+v, want 5 accepted", res)
	}
	s := srv.lookup("s")
	s.mu.Lock()
	c, j := s.slotLocked(tag)
	if c == nil || c.filled != 1 || len(c.obs) != 1 || c.obs[j] != 1 {
		t.Errorf("candidate holds %v after 7 surplus reports, want its one observation", c)
	}
	s.mu.Unlock()
	if obs, _, _ := db.AppendObsSource(nil, pt, 0); len(obs) != 8 {
		t.Errorf("store holds %d observations of the candidate, want 8 (the resend is not one)", len(obs))
	}
}

// TestClientBatchRoundTrips drives FetchN/ReportN through a real client,
// including a frame past maxBatchOps, whose excess items come back refused
// rather than failing the frame.
func TestClientBatchRoundTrips(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 1)})
		defer srv.Close()
		c, _ := dialTest(t, srv)
		if err := c.Register("s", gs2Params()); err != nil {
			t.Fatal(err)
		}
		pendingBatch(t, srv, "s", 2)
		batch, err := c.FetchN("s", 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) < 2 || batch[0].Tag == 0 || batch[0].Tag == batch[1].Tag {
			t.Fatalf("client FetchN = %+v, want 2 distinct tagged candidates", batch)
		}
		if len(batch[0].Point) == 0 {
			t.Fatal("client FetchN candidate has no point")
		}
		res, err := c.ReportN("s", []ReportItem{
			{Tag: batch[0].Tag, Value: 1.5},
			{Tag: batch[1].Tag, Value: -1}, // invalid: rejected, frame survives
			{Tag: batch[0].Tag, Value: 1.5},
			{Tag: batch[0].Tag, Value: 1.5},
			{Tag: batch[0].Tag, Value: 1.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != 4 || res.Rejected != 1 || res.Refused != 0 {
			t.Errorf("wire ReportN = %+v, want 4 accepted / 1 rejected / 0 refused", res)
		}

		// Items past maxBatchOps are refused, not applied; the rest of
		// the frame is.
		over := make([]ReportItem, maxBatchOps+3)
		for i := range over {
			over[i] = ReportItem{Tag: batch[0].Tag, Value: 1.5}
		}
		res, err = c.ReportN("s", over)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != maxBatchOps || res.Rejected != 0 || res.Refused != 3 {
			t.Errorf("oversized ReportN = %+v, want %d accepted / 0 rejected / 3 refused", res, maxBatchOps)
		}
		if err := c.Report("s", batch[0].Tag, 1.5); err != nil {
			t.Fatalf("surplus single report refused: %v", err)
		}
		if n := c.Reconnects(); n != 0 {
			t.Errorf("batch frames triggered %d reconnects", n)
		}
		if _, err := c.FetchN("nope", 3); !errors.Is(err, ErrUnknownSession) {
			t.Fatalf("unknown session via FetchN not classified: %v", err)
		}
	})
}
