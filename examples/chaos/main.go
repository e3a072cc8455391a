// Chaos walkthrough: deterministic network-fault injection and the recovery
// machinery that tolerates it, in three acts:
//
//  1. Determinism. Two chaos proxies built from the same seed emit
//     byte-identical fault plans — the chaos_plan/chaos_kill event stream is
//     a pure function of (seed, config), so any chaotic run can be replayed
//     exactly.
//
//  2. Tuning through faults. Two clients tune a GS2 surrogate through a
//     chaos proxy that delays, drops, duplicates, truncates, and resets
//     wire frames. Per-frame sequence numbers (the server discards
//     duplicated frames), sample slots (a retried report finds its slot
//     filled and counts once) and capped backoff let the session converge
//     anyway; the run's quality is compared against a fault-free baseline.
//
//  3. Mid-tuning server kill. A supervised server with atomic
//     auto-checkpoints is killed abruptly (no final checkpoint — a
//     simulated kill -9) and restarted from the checkpoint + measurement-db
//     WAL. The client's next call transparently reconnects, resends the
//     request, and finds its session restored.
//
// Run it with:
//
//	go run ./examples/chaos
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"paratune/internal/chaos"
	"paratune/internal/event"
	"paratune/internal/harmony"
	"paratune/internal/measuredb"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

func main() {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 11})

	// --- Act 1: same seed, byte-identical fault plan ------------------------
	fmt.Println("act 1: same-seed chaos plans are byte-identical")
	cfg := chaos.Config{
		Seed:   19,
		PDelay: 0.06, PDrop: 0.04, PDup: 0.05, PTruncate: 0.02, PReset: 0.03,
		DelayMinMS: 1, DelayMaxMS: 5,
		Kills: 1, KillEveryFrames: 30, DownMinMS: 10, DownMaxMS: 30,
	}
	planA, planB := renderPlan(cfg), renderPlan(cfg)
	fmt.Printf("  plan is %d bytes, %d lines\n", len(planA), bytes.Count(planA, []byte("\n")))
	fmt.Printf("  two proxies, same seed: identical = %v\n", bytes.Equal(planA, planB))
	other := cfg
	other.Seed = 20
	fmt.Printf("  seed 20 instead of 19:  identical = %v\n\n", bytes.Equal(planA, renderPlan(other)))

	// --- Act 2: tuning through an unreliable network ------------------------
	fmt.Println("act 2: 2 clients tune GS2 through delays, drops, dups, truncation, resets")
	baseline, _ := run(db, chaos.Config{Seed: 1}, false) // fault-free: every frame passes
	var mem event.Memory
	faulty := chaos.Config{
		Seed:   19,
		PDelay: 0.06, PDrop: 0.04, PDup: 0.05, PTruncate: 0.02, PReset: 0.03,
		DelayMinMS: 1, DelayMaxMS: 5,
		Recorder: &mem,
	}
	chaotic, _ := run(db, faulty, false)
	fmt.Printf("  faults applied on the wire: %d (of %d planned)\n",
		mem.Count(event.KindChaosApplied), mem.Count(event.KindChaosPlan))
	fmt.Printf("  fault-free best -> %.4f\n", baseline)
	fmt.Printf("  chaotic    best -> %.4f  (%.1f%% off fault-free)\n\n",
		chaotic, 100*(chaotic-baseline)/baseline)

	// --- Act 3: kill -9 mid-tuning, restore from checkpoint -----------------
	fmt.Println("act 3: scheduled mid-tuning kill; restart from checkpoint + WAL")
	// The two clients send 56-67 frames in all before they converge, so the
	// kill is drawn in [1, 50] frames (seed 19 draws 28) to land mid-tuning.
	kill := chaos.Config{
		Seed:  19,
		Kills: 1, KillEveryFrames: 25, DownMinMS: 10, DownMaxMS: 30,
	}
	killed, gen := run(db, kill, true)
	fmt.Printf("  post-restart best -> %.4f  (%.1f%% off fault-free)\n",
		killed, 100*(killed-baseline)/baseline)
	if gen < 2 {
		fmt.Fprintln(os.Stderr, "chaos: the scheduled kill never fired, so the demo showed no restart")
		os.Exit(1)
	}
}

// renderPlan builds a chaos schedule and renders its plan stream as JSONL.
func renderPlan(cfg chaos.Config) []byte {
	p, err := chaos.New(cfg, func() (net.Conn, error) { return nil, nil }, chaos.KillerFunc(func(float64) {}))
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	p.WritePlan(event.NewJSONL(&buf))
	return buf.Bytes()
}

// run wires supervisor → chaos proxy → TCP listener, drives two clients to
// convergence through the proxy, and returns the noise-free value of the best
// point found and the server's generation (2 or more once a kill restarted
// it). With durable set, the server checkpoints to disk and persists
// measurements so a scheduled kill restarts it mid-tuning.
func run(db objective.Function, cfg chaos.Config, durable bool) (float64, int) {
	var ckpt, dbDir string
	if durable {
		dir, err := os.MkdirTemp("", "chaos-example")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		ckpt = filepath.Join(dir, "tuning.ckpt")
		dbDir = filepath.Join(dir, "mdb")
	}

	newServer := func() (*harmony.Server, func(), error) {
		est, err := sample.NewMinOfK(1)
		if err != nil {
			return nil, nil, err
		}
		opts := harmony.ServerOptions{Estimator: est}
		var store *measuredb.Store
		if dbDir != "" {
			store, err = measuredb.Open(dbDir, measuredb.Options{Seed: 1})
			if err != nil {
				return nil, nil, err
			}
			opts.DB = store
		}
		srv := harmony.NewServer(opts)
		if ckpt != "" {
			if _, err := srv.RestoreFile(ckpt); err != nil {
				return nil, nil, err
			}
		}
		cleanup := func() {
			if store != nil {
				_ = store.Close()
			}
		}
		return srv, cleanup, nil
	}
	scfg := chaos.SupervisorConfig{NewServer: newServer, CheckpointEvery: 10 * time.Millisecond}
	if ckpt != "" {
		scfg.Checkpoint = func(srv *harmony.Server) error { return srv.WriteCheckpointFile(ckpt) }
	}
	sup, err := chaos.NewSupervisor(scfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		log.Fatal(err)
	}
	defer sup.Kill()

	proxy, err := chaos.New(cfg, sup.Dial, sup.KillFor())
	if err != nil {
		log.Fatal(err)
	}
	defer proxy.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go func() {
		// Serve returns nil once the listener closes
		_ = proxy.Serve(l)
	}()

	session := "chaos-example"
	reconnects := 0
	var best space.Point // the converged best, as the clients read it
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := harmony.DialWith(l.Addr().String(), harmony.DialOptions{
				Retries:    25,
				Backoff:    2 * time.Millisecond,
				MaxBackoff: 25 * time.Millisecond,
				Timeout:    400 * time.Millisecond,
				Seed:       int64(100 + id),
			})
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			// Joiners retry until the session exists; the registrar wins the
			// race, everyone else attaches.
			for j := 0; ; j++ {
				if err := c.Register(session, spaceParams(db.Space())); err == nil {
					break
				} else if j > 50 {
					log.Fatalf("client %d never joined: %v", id, err)
				}
			}
			measure := func(p space.Point) (float64, error) { return db.Eval(p), nil }
			// A kill landing before the first checkpoint loses the session;
			// the recovery contract is re-register and keep tuning.
			var got space.Point
			for round := 0; ; round++ {
				var err error
				got, err = harmony.RunLoop(c, session, measure, 3000)
				if err == nil {
					break
				}
				if errors.Is(err, harmony.ErrUnknownSession) && round < 5 {
					if rerr := c.Register(session, spaceParams(db.Space())); rerr == nil || errors.Is(rerr, harmony.ErrUnknownSession) {
						continue
					}
				}
				log.Fatalf("client %d: %v", id, err)
			}
			n := c.Reconnects()
			mu.Lock()
			reconnects += n
			best = got
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	gen := sup.Generation()
	if cfg.Kills > 0 {
		fmt.Printf("  server generation %d (>=2 means the scheduled kill fired), %d client reconnect(s)\n",
			gen, reconnects)
	}

	// The clients read the best point at convergence: a kill landing after
	// that may restart the server from a checkpoint that predates the
	// session, so the server is not asked again.
	return db.Eval(best), gen
}

func spaceParams(s *space.Space) []space.Parameter {
	out := make([]space.Parameter, s.Dim())
	for i := range out {
		out[i] = s.Param(i)
	}
	return out
}
