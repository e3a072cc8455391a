package harmony

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
	"time"

	"paratune/internal/core"
	"paratune/internal/event"
	"paratune/internal/feddb"
	"paratune/internal/measuredb"
	"paratune/internal/objective"
	"paratune/internal/space"
)

// A full in-process tuning session leaves a coherent event trail: the session
// is registered, batches are proposed and completed, iterations advance, and
// convergence is certified.
func TestServerEmitsSessionEvents(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 31, Coverage: 1})
	est := mustMinOfK(t, 2)
	rec := &event.Memory{}
	srv := NewServer(ServerOptions{Estimator: est, Recorder: rec})
	defer srv.Close()
	if err := srv.Register("gs2", gs2Params()); err != nil {
		t.Fatal(err)
	}
	// The report that completes the last batch returns only after the
	// optimiser has recorded convergence, and runClients waits for every
	// client, so every event is recorded before the reads below.
	runClients(t, srv, "gs2", db, 8, 30*time.Second)
	if _, _, conv, err := srv.Best("gs2"); err != nil || !conv {
		t.Fatalf("session did not converge: %v", err)
	}

	phases := map[string]int{}
	for _, e := range rec.Events() {
		if s, ok := e.(event.Session); ok {
			if s.Session != "gs2" {
				t.Errorf("event for unexpected session %q", s.Session)
			}
			phases[s.Phase]++
		}
	}
	for _, want := range []string{"registered", "batch_proposed", "batch_complete", "converged"} {
		if phases[want] == 0 {
			t.Errorf("no %q session event (got %v)", want, phases)
		}
	}
	if rec.Count(event.KindIteration) == 0 {
		t.Error("no iteration events recorded")
	}
	if rec.Count(event.KindConverged) != 1 {
		t.Errorf("converged events = %d, want 1", rec.Count(event.KindConverged))
	}
}

// Stopping a session mid-run emits the "stopped" phase instead of
// "converged".
func TestServerEmitsStoppedPhase(t *testing.T) {
	rec := &event.Memory{}
	srv := NewServer(ServerOptions{Recorder: rec})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	// Stop returns once the optimiser has exited, so its last event is
	// already recorded.
	if err := srv.Stop("s"); err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	if s, ok := evs[len(evs)-1].(event.Session); !ok || s.Phase != "stopped" {
		t.Errorf("last event after Stop = %+v, want the stopped phase", evs[len(evs)-1])
	}
}

// The recorder guards must not drop, add or reorder a single event. A
// seeded warm-start session through a server with a store and a recorder — a
// cold session measured part of what it visits, so its lookups mix db_hit
// and db_miss — has its event stream pinned as a JSONL digest. The session's
// Memo serves the same stream through the read-through cache as from the
// store's raw observations. Register records "registered" before stepping
// the optimiser, so it comes first; the digest covers the events after it.
func TestWarmSessionEventGolden(t *testing.T) {
	const (
		want                 = "062fb25d478358bf07f791c2607d7d0a83da36875ad0a6ddbc42a3c99bfa42c0"
		wantHits, wantMisses = 53, 17
	)
	for _, cached := range []bool{true, false} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			est := mustMinOfK(t, 2)
			db := measuredb.NewMemory(measuredb.Options{Seed: 1, Origin: "local"})
			sp, err := space.New(gs2Params()...)
			if err != nil {
				t.Fatal(err)
			}
			f := objective.NewSphere(sp, space.Point{32, 16, 8}, 1)
			cold := NewServer(ServerOptions{Estimator: est, DB: db})
			if err := cold.Register("cold", gs2Params()); err != nil {
				t.Fatal(err)
			}
			driveCounting(t, cold, "cold", f)
			cold.Close()

			rec := &event.Memory{}
			opts := ServerOptions{
				Estimator: est, DB: db, Recorder: rec,
				NewAlgorithm: func(sp *space.Space) (core.Algorithm, error) {
					return core.NewPRO(core.Options{Space: sp, R: 0.4})
				},
			}
			if cached {
				opts.Cache = feddb.NewCache(db, est, est.K(), 0)
			}
			srv := NewServer(opts)
			defer srv.Close()
			if err := srv.Register("warm", gs2Params()); err != nil {
				t.Fatal(err)
			}
			driveCounting(t, srv, "warm", f)

			evs := rec.Events()
			if s, ok := evs[0].(event.Session); !ok || s.Phase != "registered" {
				t.Fatalf("first event %+v, want the registered phase", evs[0])
			}
			var buf bytes.Buffer
			jl := event.NewJSONL(&buf)
			for _, e := range evs[1:] {
				jl.Record(e)
			}
			if err := jl.Err(); err != nil {
				t.Fatal(err)
			}
			hits, misses := rec.Count(event.KindDBHit), rec.Count(event.KindDBMiss)
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want || hits != wantHits || misses != wantMisses {
				t.Fatalf("warm session events: digest %s with %d db_hit, %d db_miss; golden %s with %d, %d",
					got, hits, misses, want, wantHits, wantMisses)
			}
		})
	}
}

// lockProbe is a recorder that checks, at every event, that no lock a
// recorder could deadlock on is held: each shard's and each session's
// mutex. TryLock turns an emission under one of them into a test failure
// instead of a hang; runLockProbe drives one client at a time and never
// advances the clock the sweeper waits on, so no other goroutine holds
// them. With the locks free, the probe reads every session back through
// Sessions, Best and Stats, as a monitoring recorder would. It also
// rejects an event whose type is declared outside internal/event, which
// the sealed Event interface admits only by embedding a declared kind.
type lockProbe struct {
	t    *testing.T
	srv  *Server
	seen map[*session]bool // every session ever live, expired ones included
	event.Memory
}

func (p *lockProbe) Record(e event.Event) {
	p.Memory.Record(e)
	if pkg := reflect.TypeOf(e).PkgPath(); pkg != "paratune/internal/event" {
		p.t.Errorf("%T recorded: event types are declared in internal/event, not %s", e, pkg)
	}
	for i := range p.srv.shards {
		sh := &p.srv.shards[i]
		if !sh.mu.TryLock() {
			p.t.Errorf("%s event recorded under shard %d's lock", e.EventKind(), i)
			return
		}
		for _, s := range sh.sessions {
			p.seen[s] = true
		}
		sh.mu.Unlock()
	}
	for s := range p.seen {
		if !s.mu.TryLock() {
			p.t.Errorf("%s event recorded under session %q's lock", e.EventKind(), s.name)
			return
		}
		s.mu.Unlock()
	}
	for _, name := range p.srv.Sessions() {
		if _, _, _, err := p.srv.Best(name); err != nil {
			p.t.Errorf("recorder Best(%q): %v", name, err)
		}
		if _, err := p.srv.Stats(name); err != nil {
			p.t.Errorf("recorder Stats(%q): %v", name, err)
		}
	}
}

// runLockProbe drives every harmony emission site under a lockProbe and
// returns the recorded stream as JSONL. Session "a" runs one batch over the
// wire ops, one batch the deadline degrades, convergence, a checkpoint,
// idle expiry and a restore; "b" is stopped mid-run; "c" warm-starts from
// what "a" stored. The sweeper's clock never moves: sweepSession is called
// directly at chosen times.
func runLockProbe(t *testing.T) []byte {
	clk := NewFakeClock(time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC))
	p := &lockProbe{t: t, seen: make(map[*session]bool)}
	srv := NewServer(ServerOptions{
		Estimator: mustMinOfK(t, 2), Recorder: p, Clock: clk,
		DB:                 measuredb.NewMemory(measuredb.Options{Seed: 1, Origin: "local"}),
		MeasurementTimeout: time.Second, MaxReissues: 1, IdleTimeout: time.Hour,
	})
	p.srv = srv
	defer srv.Close()
	sp, err := space.New(gs2Params()...)
	if err != nil {
		t.Fatal(err)
	}
	f := objective.NewSphere(sp, space.Point{32, 16, 8}, 1)
	for _, name := range []string{"a", "b"} {
		if err := srv.Register(name, gs2Params()); err != nil {
			t.Fatal(err)
		}
	}

	var grant []FetchResult
	resp := dispatch(srv, &request{Op: opFetchN, Session: "a", N: maxBatchOps}, &grant)
	items := make([]ReportItem, 0, len(resp.Batch))
	for _, fr := range resp.Batch {
		items = append(items, ReportItem{Tag: fr.Tag, Value: f.Eval(fr.Point)})
	}
	if resp := dispatch(srv, &request{Op: opReportN, Session: "a", Reports: items}, &grant); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	a := srv.lookup("a")
	srv.sweepSession(a, clk.Now().Add(time.Second))   // stale window: reissue
	srv.sweepSession(a, clk.Now().Add(2*time.Second)) // past MaxReissues: degrade
	driveCounting(t, srv, "a", f)
	cp, err := srv.Checkpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	srv.sweepSession(a, clk.Now().Add(2*time.Hour)) // idle: expire
	if err := srv.RestoreSession(cp); err != nil {
		t.Fatal(err)
	}
	if err := srv.Stop("b"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("c", gs2Params()); err != nil {
		t.Fatal(err)
	}
	driveCounting(t, srv, "c", f)

	phases := map[string]bool{}
	var buf bytes.Buffer
	jl := event.NewJSONL(&buf)
	for _, e := range p.Events() {
		jl.Record(e)
		if s, ok := e.(event.Session); ok {
			phases[s.Phase] = true
		}
		phases[e.EventKind()] = true
	}
	for _, want := range []string{
		"registered", "batch_proposed", "batch_complete", "batch_degraded", "converged",
		"expired", "restored", "stopped",
		event.KindIteration, event.KindBatchFetch, event.KindBatchReport, event.KindDBHit, event.KindDBMiss,
	} {
		if !phases[want] {
			t.Errorf("scenario recorded no %q event; an emission site went unprobed", want)
		}
	}
	return buf.Bytes()
}

// A recorder may call back into the server's read API, so no harmony event
// is recorded under a shard or session lock. Two runs of one scenario record
// byte-identical streams, so no payload reads the wall clock.
func TestRecorderMayReadServer(t *testing.T) {
	first, second := runLockProbe(t), runLockProbe(t)
	if !bytes.Equal(first, second) {
		a, b := bytes.Split(first, []byte("\n")), bytes.Split(second, []byte("\n"))
		for i := range min(len(a), len(b)) {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("two runs of one scenario differ at event %d:\n%s\n%s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("two runs of one scenario recorded %d and %d events", len(a)-1, len(b)-1)
	}
}
