package harmony

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"paratune/internal/dist"
	"paratune/internal/objective"
)

// TestManySessionsBinaryBatched is the saturation smoke: 256 sessions over
// the binary wire, driven by 8 concurrent clients in batches of 16, so the
// sharded session table, the PHWIRE1 codec and the per-session step lock
// all run under real concurrency (and under the race detector in `go test
// -race`). Each session takes a fixed number of batches of GS2 surrogate
// times under Pareto noise; every round trip must succeed and every
// reported item must come back classified.
func TestManySessionsBinaryBatched(t *testing.T) {
	const (
		sessions = 256
		workers  = 8
		batch    = 16
		rounds   = 4 // fetchn/reportn batches per session
	)
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveAsync(l, srv)

	db := objective.GenerateGS2(objective.GS2Config{Seed: 1})
	model := mustPareto(t, 1.7, 0.2)
	names := make([]string, sessions)
	for i := range names {
		names[i] = fmt.Sprintf("load-%05d", i)
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	sent := make([]int, workers)
	classified := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialWith(l.Addr().String(), DialOptions{
				Wire:    WireBinary,
				Retries: 5,
				Backoff: 10 * time.Millisecond,
				Seed:    int64(w + 1),
			})
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			for i := w; i < sessions; i += workers {
				if err := c.Register(names[i], gs2Params()); err != nil {
					errs[w] = fmt.Errorf("register %s: %w", names[i], err)
					return
				}
			}
			rng := dist.NewRNG(int64(w + 1))
			items := make([]ReportItem, 0, batch)
			for r := 0; r < rounds; r++ {
				for i := w; i < sessions; i += workers {
					frs, err := c.FetchN(names[i], batch)
					if err != nil {
						errs[w] = fmt.Errorf("fetchn %s: %w", names[i], err)
						return
					}
					items = items[:0]
					for _, fr := range frs {
						if fr.Tag != 0 {
							items = append(items, ReportItem{Tag: fr.Tag, Value: model.Perturb(db.Eval(fr.Point), rng)})
						}
					}
					res, err := c.ReportN(names[i], items)
					if err != nil {
						errs[w] = fmt.Errorf("reportn %s: %w", names[i], err)
						return
					}
					sent[w] += len(items)
					classified[w] += res.Accepted + res.Refused + res.Rejected
				}
			}
		}(w)
	}
	wg.Wait()

	total := 0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if classified[w] != sent[w] {
			t.Errorf("worker %d: %d of %d reported items classified", w, classified[w], sent[w])
		}
		total += sent[w]
	}
	t.Logf("%d sessions x %d batches: %d measurements reported", sessions, rounds, total)
	if total < sessions*rounds {
		t.Fatalf("%d measurements reported, want at least one per batch (%d)", total, sessions*rounds)
	}
	if got := len(srv.Sessions()); got != sessions {
		t.Errorf("%d sessions live, want %d", got, sessions)
	}
}
