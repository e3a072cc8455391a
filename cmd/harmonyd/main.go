// Command harmonyd runs the Active-Harmony-style tuning server over TCP.
// Applications connect with the paratune.Client library, which speaks the
// PHWIRE1 binary protocol (see internal/harmony), register their tunable
// parameters, and drive fetch/report loops. Federation peers reach the same
// port with the PHSYNC1 preamble; a connection that opens with neither
// preamble is closed without a reply.
//
// Usage:
//
//	harmonyd [-addr :7779] [-samples 3] [-estimator min]
//	         [-checkpoint tuning.ckpt] [-checkpoint-interval 30s]
//	         [-measure-timeout 30s] [-idle-timeout 0] [-trace events.jsonl]
//	         [-db dir] [-db-origin name] [-peers host:port,...]
//	         [-sync-interval 2s] [-supervise] [-max-restarts 10]
//
// With -checkpoint set, harmonyd restores every session found in the file at
// startup (a missing file is fine), rewrites it every -checkpoint-interval,
// and writes it a final time on SIGINT/SIGTERM — so a killed and restarted
// harmonyd resumes tuning mid-simplex instead of starting over.
//
// With -supervise, harmonyd runs as a self-healing pair: the parent re-execs
// itself as a worker child (with -supervise stripped) and restarts it
// whenever it dies abnormally, with capped exponential backoff, up to
// -max-restarts times. Combined with -checkpoint and -db, a crashed worker
// comes back mid-tuning: sessions restore from the auto-checkpoint, past
// measurements replay from the measurement-database WAL, and clients redial
// and resend their request instead of re-registering.
//
// With -db set, every accepted measurement is persisted to the measurement
// database in that directory, and candidates the store has already resolved
// are answered without being issued to clients — a restarted harmonyd (even
// without -checkpoint) warm-starts tuning from everything measured before.
// Warm-start lookups go through a read-through estimate cache that is
// invalidated per configuration on every store write.
//
// With -peers set (and -db), harmonyd federates: it runs a gossip-style
// anti-entropy round against every peer each -sync-interval, pulling frames
// it is missing and pushing frames the peer is missing, so every peer
// converges on the union of all measurements. A peer far behind catches up
// the same way; a round cut short is finished by the next one.
// -db-origin names this store's identity in federated merges (defaults to a
// seed-derived name; distinct peers must use distinct origins).
//
// With -trace set, every session's lifecycle and optimiser iterations are
// appended to the file as JSONL events (the cmd/traceanalyze format).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"paratune/internal/event"
	"paratune/internal/feddb"
	"paratune/internal/harmony"
	"paratune/internal/measuredb"
	"paratune/internal/sample"
)

func main() {
	var (
		addr        = flag.String("addr", ":7779", "listen address")
		samples     = flag.Int("samples", 3, "measurements per candidate (K)")
		estimator   = flag.String("estimator", "min", "min, mean, median, single")
		ckptPath    = flag.String("checkpoint", "", "checkpoint file: restore on start, rewrite periodically and on SIGINT/SIGTERM")
		ckptEvery   = flag.Duration("checkpoint-interval", 30*time.Second, "how often to rewrite the checkpoint file")
		measureTO   = flag.Duration("measure-timeout", 0, "per-batch measurement progress deadline (0 = default 30s, <0 = disabled)")
		idleExpiry  = flag.Duration("idle-timeout", 0, "drop sessions idle this long (0 = never)")
		trace       = flag.String("trace", "", "append session lifecycle and iteration events to this JSONL file (\"-\" for stdout)")
		dbDir       = flag.String("db", "", "persist measurements to (and warm-start from) the measurement database in this directory")
		dbOrigin    = flag.String("db-origin", "", "this store's origin name in federated merges (default: derived from the seed)")
		peers       = flag.String("peers", "", "comma-separated peer addresses to run anti-entropy sync against (requires -db)")
		syncEvery   = flag.Duration("sync-interval", 2*time.Second, "how often to sync with each -peers address")
		supervise   = flag.Bool("supervise", false, "run a supervisor that re-execs this binary as a worker and restarts it on abnormal exit")
		maxRestarts = flag.Int("max-restarts", 10, "with -supervise: give up after this many abnormal worker exits")
	)
	flag.Parse()

	if *supervise {
		os.Exit(superviseLoop(*maxRestarts))
	}

	est, err := sample.New(*estimator, *samples)
	if err != nil {
		fatal(err)
	}
	var rec *event.JSONL
	if *trace != "" {
		w := os.Stdout
		if *trace != "-" {
			f, err := os.OpenFile(*trace, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		rec = event.NewJSONL(w)
	}
	opts := harmony.ServerOptions{
		Estimator:          est,
		MeasurementTimeout: *measureTO,
		IdleTimeout:        *idleExpiry,
	}
	if rec != nil {
		opts.Recorder = rec
	}
	var db *measuredb.Store
	if *dbDir != "" {
		dbOpts := measuredb.Options{Origin: *dbOrigin}
		if rec != nil {
			dbOpts.Recorder = rec
		}
		db, err = measuredb.Open(*dbDir, dbOpts)
		if err != nil {
			fatal(err)
		}
		configs, obs := db.Stats()
		fmt.Printf("harmonyd: measurement db %s origin %s (%d configs, %d observations)\n", *dbDir, db.Origin(), configs, obs)
		if r := db.Recovery(); r != nil {
			fmt.Fprintf(os.Stderr, "harmonyd: recovered WAL: truncated at byte %d, dropped %d bytes\n",
				r.TruncatedAt, r.DroppedBytes)
		}
		opts.DB = db
		opts.Cache = feddb.NewCache(db, est, est.K(), 0)
	}
	if *peers != "" && db == nil {
		fatal(fmt.Errorf("-peers requires -db"))
	}
	srv := harmony.NewServer(opts)

	if *ckptPath != "" {
		found, err := srv.RestoreFile(*ckptPath)
		if err != nil {
			fatal(fmt.Errorf("restore %s: %w", *ckptPath, err))
		}
		if found {
			fmt.Printf("harmonyd: restored %d session(s) from %s\n", len(srv.Sessions()), *ckptPath)
		}
	}

	// Catch SIGINT/SIGTERM before announcing the address, so a signal sent
	// as soon as the listening line appears still shuts down gracefully.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("harmonyd listening on %s (estimator %v)\n", l.Addr(), est)

	stopSync := make(chan struct{})
	if *peers != "" {
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		syncOpts := feddb.Options{}
		if rec != nil {
			syncOpts.Recorder = rec
		}
		syncer := feddb.NewSyncer(db, peerList, nil, syncOpts)
		go syncer.Run(stopSync, *syncEvery)
		fmt.Printf("harmonyd: federating with %s every %v\n", strings.Join(peerList, ","), *syncEvery)
	}

	stopCkpt := make(chan struct{})
	if *ckptPath != "" && *ckptEvery > 0 {
		// A Ticker (not time.Tick) so shutdown releases the timer instead of
		// leaking it for the life of the process.
		go func() {
			t := time.NewTicker(*ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-t.C:
					if err := srv.WriteCheckpointFile(*ckptPath); err != nil {
						fmt.Fprintln(os.Stderr, "harmonyd: checkpoint:", err)
					}
				}
			}
		}()
	}

	go func() {
		<-sig
		close(stopSync)
		close(stopCkpt)
		if *ckptPath != "" {
			if err := srv.WriteCheckpointFile(*ckptPath); err != nil {
				fmt.Fprintln(os.Stderr, "harmonyd: final checkpoint:", err)
			} else {
				fmt.Printf("harmonyd: checkpoint written to %s\n", *ckptPath)
			}
		}
		fmt.Println("harmonyd: shutting down")
		l.Close()
		srv.Close()
		if db != nil {
			if err := db.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "harmonyd: db:", err)
			}
		}
	}()

	if err := harmony.Serve(l, srv); err != nil {
		fatal(err)
	}
}

// superviseLoop re-execs this binary as a worker (with -supervise stripped)
// and restarts it on abnormal exit with capped exponential backoff. A worker
// that exits cleanly (normal shutdown via SIGINT/SIGTERM) ends supervision;
// a worker that keeps dying gives up after maxRestarts attempts. The
// supervisor forwards its own termination signals to the worker so the
// final-checkpoint path still runs on graceful shutdown; a signal during the
// restart backoff, with no worker up, ends supervision with status 1.
func superviseLoop(maxRestarts int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "harmonyd: supervise:", err)
		return 1
	}
	args := workerArgs(os.Args[1:])
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	backoff := time.Second
	const maxBackoff = 30 * time.Second
	for restarts := 0; ; restarts++ {
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr, cmd.Stdin = os.Stdout, os.Stderr, os.Stdin
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "harmonyd: supervise: start worker:", err)
			return 1
		}
		fmt.Printf("harmonyd[supervisor]: worker pid %d up (restart %d)\n", cmd.Process.Pid, restarts)

		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		var werr error
		select {
		case s := <-sig:
			// Graceful stop: hand the signal to the worker so it writes its
			// final checkpoint, then follow it down.
			_ = cmd.Process.Signal(s)
			if <-done != nil {
				return 1
			}
			return 0
		case werr = <-done:
		}
		if werr == nil {
			return 0 // clean exit: supervision is done
		}
		if restarts+1 >= maxRestarts {
			fmt.Fprintf(os.Stderr, "harmonyd[supervisor]: worker died %d times; giving up: %v\n", restarts+1, werr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "harmonyd[supervisor]: worker died (%v); restarting in %v\n", werr, backoff)
		select {
		case <-sig:
			return 1 // stopped with no worker up; the last one died
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// workerArgs strips the supervision flags, in every spelling the flag
// package accepts, from the argument list handed to the re-execed worker.
func workerArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		name, _, hasValue := strings.Cut(args[i], "=")
		switch name {
		case "-supervise", "--supervise":
			continue
		case "-max-restarts", "--max-restarts":
			if !hasValue {
				i++ // its value follows as a separate argument
			}
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "harmonyd:", err)
	os.Exit(1)
}
