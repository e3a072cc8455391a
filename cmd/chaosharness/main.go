// Command chaosharness soaks the harmony stack under deterministic network
// chaos: for each of -seeds randomized fault schedules it runs a full
// multi-client tuning session through the internal/chaos proxy — resets,
// partitions, stalls, duplicated and truncated frames, and scheduled
// mid-session server kills with checkpoint/WAL recovery — twice per seed,
// and asserts the robustness invariants:
//
//   - no hangs: every run terminates within -deadline, and some event (a
//     chaos decision, a session lifecycle step, an optimiser iteration)
//     progresses at least every -stall; a watchdog trip dumps every
//     goroutine stack to stderr and fails the seed, so a deadlock the
//     static lockorder pass missed leaves a post-mortem;
//   - every session converges, or degrades gracefully with a recorded
//     reason (session lost to an early kill and re-registered, or the
//     iteration cap struck first);
//   - quality: the run's best point, scored on the noise-free objective, is
//     within -bound (relative) of the fault-free baseline's best;
//   - determinism: the two same-seed runs emit byte-identical chaos-plan
//     JSONL traces (the plan is a pure function of seed and config).
//
// Usage:
//
//	chaosharness [-seeds 20] [-base-seed 1] [-clients 2] [-iters 4000]
//	             [-deadline 60s] [-stall 15s] [-bound 0.25] [-kills 2] [-v]
//
// Exit status 0 when every seed holds every invariant, 1 otherwise.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"paratune/internal/chaos"
	"paratune/internal/dist"
	"paratune/internal/event"
	"paratune/internal/harmony"
	"paratune/internal/measuredb"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 20, "number of randomized fault schedules to soak")
		baseSeed = flag.Int64("base-seed", 1, "first schedule seed; schedule i uses base-seed+i")
		clients  = flag.Int("clients", 2, "concurrent tuning clients per run")
		iters    = flag.Int("iters", 4000, "per-client fetch cap before a run degrades as iteration_cap")
		deadline = flag.Duration("deadline", 60*time.Second, "per-run watchdog; a run still going is a hang")
		stall    = flag.Duration("stall", 15*time.Second, "deadlock watchdog; a run with no event progress for this long is dumped and failed")
		bound    = flag.Float64("bound", 0.25, "relative quality bound vs the fault-free baseline best")
		kills    = flag.Int("kills", 2, "max scheduled server kills per run (drawn 0..max)")
		verbose  = flag.Bool("v", false, "log per-run detail")
	)
	flag.Parse()

	db := objective.GenerateGS2(objective.GS2Config{Seed: 11})

	// Fault-free baseline: same tuning setup behind a transparent proxy.
	base, err := runOnce(db, chaos.Config{Seed: 1}, *clients, *iters, *deadline, *stall, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaosharness: baseline:", err)
		os.Exit(1)
	}
	fmt.Printf("baseline: best %.4f (converged=%v, %.2fs)\n",
		base.bestTrue, base.converged, base.elapsed.Seconds())

	failures := 0
	for i := 0; i < *seeds; i++ {
		seed := *baseSeed + int64(i)
		cfg := drawConfig(seed, *kills)
		var runs [2]result
		ok := true
		for r := 0; r < 2; r++ {
			res, err := runOnce(db, cfg, *clients, *iters, *deadline, *stall, *verbose)
			if err != nil {
				fmt.Printf("seed %d run %d: FAIL: %v\n", seed, r, err)
				ok = false
				break
			}
			runs[r] = res
		}
		if !ok {
			failures++
			continue
		}
		if !bytes.Equal(runs[0].plan, runs[1].plan) {
			fmt.Printf("seed %d: FAIL: same-seed runs emitted different chaos plans (%d vs %d bytes)\n",
				seed, len(runs[0].plan), len(runs[1].plan))
			failures++
			continue
		}
		bad := false
		for r, res := range runs {
			if res.bestTrue > base.bestTrue*(1+*bound)+1e-9 {
				fmt.Printf("seed %d run %d: FAIL: best %.4f breaches bound %.4f (baseline %.4f)\n",
					seed, r, res.bestTrue, base.bestTrue*(1+*bound), base.bestTrue)
				bad = true
			}
		}
		if bad {
			failures++
			continue
		}
		outcome := "converged"
		if !runs[0].converged || !runs[1].converged {
			outcome = fmt.Sprintf("degraded (%v)", append(runs[0].degraded, runs[1].degraded...))
		}
		fmt.Printf("seed %d: ok: %s, best %.4f/%.4f, %d/%d faults applied, %d/%d reconnects, %d/%d restarts\n",
			seed, outcome, runs[0].bestTrue, runs[1].bestTrue,
			runs[0].applied, runs[1].applied, runs[0].reconnects, runs[1].reconnects,
			runs[0].restarts, runs[1].restarts)
	}
	if failures > 0 {
		fmt.Printf("chaosharness: %d of %d seeds FAILED\n", failures, *seeds)
		os.Exit(1)
	}
	fmt.Printf("chaosharness: all %d seeds passed\n", *seeds)
}

// drawConfig randomizes one fault schedule's parameters from its seed, so
// the soak covers a spread of fault mixes while staying reproducible.
func drawConfig(seed int64, maxKills int) chaos.Config {
	rng := dist.NewRNG(seed)
	return chaos.Config{
		Seed:            seed,
		Links:           16,
		Frames:          64,
		PDelay:          0.02 + 0.06*rng.Float64(),
		PDrop:           0.01 + 0.04*rng.Float64(),
		PDup:            0.01 + 0.05*rng.Float64(),
		PTruncate:       0.03 * rng.Float64(),
		PReset:          0.01 + 0.03*rng.Float64(),
		DelayMinMS:      1,
		DelayMaxMS:      5,
		Kills:           rng.Intn(maxKills + 1),
		KillEveryFrames: 30,
		DownMinMS:       5,
		DownMaxMS:       40,
	}
}

// result is one soak run's outcome.
type result struct {
	converged  bool
	degraded   []string // recorded degradation reasons, empty when converged
	bestTrue   float64  // noise-free objective at the final best point
	plan       []byte   // chaos-plan JSONL trace (the byte-identity artefact)
	applied    int      // faults the proxy actually executed
	reconnects int      // client connections re-established after a loss
	restarts   int      // server incarnations beyond the first
	elapsed    time.Duration
}

// progress is the liveness bridge between the static concurrency pass and
// the race-enabled soak: every event the run records — chaos decisions,
// session lifecycle steps, fault applications — bumps the tick counter.
// The deadlock watchdog in runOnce fails a run whose counter stops moving,
// on the theory that a genuinely deadlocked run emits nothing at all while
// a merely slow one keeps trickling events.
type progress struct {
	ticks atomic.Uint64
	inner event.Recorder
}

func (p *progress) Record(e event.Event) {
	p.ticks.Add(1)
	if p.inner != nil {
		p.inner.Record(e)
	}
}

// runOnce executes one full tuning run behind one chaos schedule, bounded
// by the hard deadline and by the no-progress stall window. Either trip
// dumps every goroutine stack to stderr so the hang is diagnosable.
func runOnce(db *objective.DB, cfg chaos.Config, clients, iters int, deadline, stall time.Duration, verbose bool) (result, error) {
	prog := &progress{}
	done := make(chan struct{})
	var res result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = soak(db, cfg, clients, iters, verbose, prog)
	}()
	if err := watch(prog, done, deadline, stall); err != nil {
		return result{}, err
	}
	return res, runErr
}

// watch blocks until done closes, returning an error when either watchdog
// trips first: the hard deadline, or the stall window elapsing with no new
// event recorded through prog. Both trips dump all goroutine stacks.
func watch(prog *progress, done <-chan struct{}, deadline, stall time.Duration) error {
	poll := stall / 4
	if poll <= 0 {
		poll = time.Second
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	hardDeadline := time.After(deadline)
	lastTicks := prog.ticks.Load()
	lastMoved := time.Now()
	for {
		select {
		case <-done:
			return nil
		case <-hardDeadline:
			dumpStacks(fmt.Sprintf("run exceeded %v deadline", deadline))
			return fmt.Errorf("HANG: run exceeded %v watchdog", deadline)
		case <-ticker.C:
			if now := prog.ticks.Load(); now != lastTicks {
				lastTicks = now
				lastMoved = time.Now()
				continue
			}
			if stalled := time.Since(lastMoved); stalled >= stall {
				dumpStacks(fmt.Sprintf("no event progress for %v (stall window %v, %d events total)",
					stalled.Round(time.Millisecond), stall, lastTicks))
				return fmt.Errorf("DEADLOCK: no event progress for %v (stall window %v)",
					stalled.Round(time.Millisecond), stall)
			}
		}
	}
}

// dumpStacks writes every goroutine's stack to stderr, growing the buffer
// until runtime.Stack reports a complete capture.
func dumpStacks(reason string) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	fmt.Fprintf(os.Stderr, "chaosharness: watchdog: %s; dumping all goroutine stacks\n%s\n", reason, buf)
}

func soak(db *objective.DB, cfg chaos.Config, nClients, iters int, verbose bool, prog *progress) (result, error) {
	start := time.Now()
	// Wire the event sink before anything that can record: the supervisor
	// starts the server (which records through prog) before the proxy exists.
	var mem event.Memory
	prog.inner = &mem
	cfg.Recorder = prog
	dir, err := os.MkdirTemp("", "chaosharness-*")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "tuning.ckpt")
	dbDir := filepath.Join(dir, "mdb")

	est, err := sample.NewMinOfK(1)
	if err != nil {
		return result{}, err
	}
	newServer := func() (*harmony.Server, func(), error) {
		store, err := measuredb.Open(dbDir, measuredb.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, nil, err
		}
		srv := harmony.NewServer(harmony.ServerOptions{Estimator: est, DB: store, Recorder: prog})
		if _, err := srv.RestoreFile(ckpt); err != nil {
			_ = store.Close()
			return nil, nil, err
		}
		return srv, func() { _ = store.Close() }, nil
	}
	sup, err := chaos.NewSupervisor(chaos.SupervisorConfig{
		NewServer:       newServer,
		CheckpointEvery: 20 * time.Millisecond,
		Checkpoint:      func(srv *harmony.Server) error { return srv.WriteCheckpointFile(ckpt) },
	})
	if err != nil {
		return result{}, err
	}
	if err := sup.Start(); err != nil {
		return result{}, err
	}
	defer sup.Kill()

	proxy, err := chaos.New(cfg, sup.Dial, sup.KillFor())
	if err != nil {
		return result{}, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return result{}, err
	}
	var serveWG sync.WaitGroup
	serveWG.Add(1)
	go func() {
		defer serveWG.Done()
		_ = proxy.Serve(l)
	}()
	defer func() {
		_ = l.Close()
		proxy.Close()
		serveWG.Wait()
	}()

	const session = "soak"
	params := make([]space.Parameter, db.Space().Dim())
	for i := range params {
		params[i] = db.Space().Param(i)
	}

	var (
		mu         sync.Mutex
		degraded   []string
		reconnects int
		failErr    error
	)
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := harmony.DialWith(l.Addr().String(), harmony.DialOptions{
				Retries:    30,
				Backoff:    2 * time.Millisecond,
				MaxBackoff: 30 * time.Millisecond,
				Timeout:    400 * time.Millisecond,
				Seed:       cfg.Seed*100 + int64(id) + 1,
			})
			if err != nil {
				mu.Lock()
				failErr = fmt.Errorf("client %d dial: %w", id, err)
				mu.Unlock()
				return
			}
			defer c.Close()
			// Registration races the other clients and early kills; keep
			// trying until the session exists.
			var regErr error
			for j := 0; j < 100; j++ {
				if regErr = c.Register(session, params); regErr == nil {
					break
				}
			}
			if regErr != nil {
				mu.Lock()
				failErr = fmt.Errorf("client %d register: %w", id, regErr)
				mu.Unlock()
				return
			}
			measure := func(p space.Point) (float64, error) { return db.Eval(p), nil }
			for round := 0; ; round++ {
				_, err := harmony.RunLoop(c, session, measure, iters)
				if err == nil {
					break
				}
				// A kill before the first checkpoint loses the session; the
				// recovery contract is to re-register and keep tuning. Record
				// the degradation and its reason.
				if errors.Is(err, harmony.ErrUnknownSession) && round < 8 {
					if rerr := c.Register(session, params); rerr == nil || errors.Is(rerr, harmony.ErrUnknownSession) {
						mu.Lock()
						degraded = append(degraded, "session_lost_reregistered")
						mu.Unlock()
						continue
					}
				}
				mu.Lock()
				if err.Error() == "harmony: iteration cap reached before convergence" {
					degraded = append(degraded, "iteration_cap")
				} else {
					failErr = fmt.Errorf("client %d: %w", id, err)
				}
				mu.Unlock()
				break
			}
			n := c.Reconnects()
			mu.Lock()
			reconnects += n
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if failErr != nil {
		return result{}, failErr
	}

	srv := sup.Server()
	if srv == nil {
		// Killed at the very end; bring it back to read the best point.
		if err := sup.Start(); err != nil {
			return result{}, err
		}
		srv = sup.Server()
	}
	best, _, converged, err := srv.Best(session)
	if err != nil {
		return result{}, fmt.Errorf("best: %w", err)
	}

	var planBuf bytes.Buffer
	proxy.WritePlan(event.NewJSONL(&planBuf))

	res := result{
		converged:  converged && len(degraded) == 0,
		degraded:   degraded,
		bestTrue:   db.Eval(best),
		plan:       planBuf.Bytes(),
		applied:    mem.Count(event.KindChaosApplied),
		reconnects: reconnects,
		restarts:   sup.Generation() - 1,
		elapsed:    time.Since(start),
	}
	if verbose {
		fmt.Printf("  run seed=%d: best=%.4f converged=%v degraded=%v applied=%d reconnects=%d restarts=%d (%.2fs)\n",
			cfg.Seed, res.bestTrue, res.converged, res.degraded, res.applied, res.reconnects, res.restarts, res.elapsed.Seconds())
	}
	return res, nil
}
