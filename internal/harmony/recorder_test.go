package harmony

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
