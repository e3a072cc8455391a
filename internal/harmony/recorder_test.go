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
	runClients(t, srv, "gs2", db, 8, 30*time.Second)
	if _, _, conv, err := srv.Best("gs2"); err != nil || !conv {
		t.Fatalf("session did not converge: %v", err)
	}
	// Best reports convergence before the run goroutine records the
	// converged phase; the goroutine's exit orders every event before the
	// reads below.
	s, err := srv.session("gs2")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.finished:
	case <-time.After(10 * time.Second):
		t.Fatal("session run goroutine did not exit after convergence")
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
	if err := srv.Stop("s"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		stopped := false
		for _, e := range rec.Events() {
			if s, ok := e.(event.Session); ok && s.Phase == "stopped" {
				stopped = true
			}
		}
		if stopped {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("no stopped session event after Stop")
}

// The recorder guards must not drop, add or reorder a single event. A
// seeded warm-start session through a server with a store and a recorder — a
// cold session measured part of what it visits, so its lookups mix db_hit
// and db_miss — has its event stream pinned as a JSONL digest. The session's
// Memo serves the same stream through the read-through cache as from the
// store's raw observations. The "registered" event is left out: Register
// records it after the session goroutine has started, so its position in
// the stream races.
func TestWarmSessionEventGolden(t *testing.T) {
	const (
		want                 = "9a46eb4affd101e82057eb8fa1982d8f30a17c19bba5edf737ea9e93b15dfaa4"
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

			var buf bytes.Buffer
			jl := event.NewJSONL(&buf)
			for _, e := range rec.Events() {
				if s, ok := e.(event.Session); ok && s.Phase == "registered" {
					continue
				}
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
