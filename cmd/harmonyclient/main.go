// Command harmonyclient is a demo SPMD client for harmonyd: it registers the
// GS2 parameter space, then simulates an iterative application — each
// "iteration" evaluates the GS2 surrogate at the configuration served by the
// tuning server, perturbed by Pareto variability — and reports the measured
// times back until the server converges.
//
// Run several instances against one harmonyd to exercise parallel tuning.
// The client speaks PHWIRE1, harmonyd's one tuning protocol.
//
// Usage:
//
//	harmonyclient [-addr localhost:7779] [-session gs2] [-rho 0.2]
//	              [-seed 1] [-max-iters 100000]
//	              [-dial-retries 5] [-dial-backoff 100ms]
//
// The client survives server restarts: a broken connection is redialled with
// exponential backoff (-dial-retries attempts starting at -dial-backoff, with
// jitter), and each report names the sample slot it fills, so a retry finds
// its slot filled and is never counted twice by the server.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"paratune/internal/dist"
	"paratune/internal/harmony"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/space"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:7779", "harmonyd address")
		session     = flag.String("session", "gs2", "session name")
		rho         = flag.Float64("rho", 0.2, "simulated idle throughput")
		seed        = flag.Int64("seed", 1, "random seed (drives measurements and redial jitter)")
		maxIters    = flag.Int("max-iters", 100000, "iteration cap")
		dialRetries = flag.Int("dial-retries", 5, "connection attempts before giving up")
		dialBackoff = flag.Duration("dial-backoff", 100*time.Millisecond, "initial redial backoff (doubles per attempt, with jitter)")
	)
	flag.Parse()

	cl, err := harmony.DialWith(*addr, harmony.DialOptions{
		Retries: *dialRetries,
		Backoff: *dialBackoff,
		Seed:    *seed,
	})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()

	sp := objective.GS2Space()
	params := make([]space.Parameter, sp.Dim())
	for i := range params {
		params[i] = sp.Param(i)
	}
	if err := cl.Register(*session, params); err != nil {
		fatal(err)
	}
	fmt.Printf("registered session %q with %d parameters\n", *session, len(params))

	db := objective.GenerateGS2(objective.GS2Config{Seed: *seed})
	var model noise.Model = noise.None{}
	if *rho > 0 {
		m, err := noise.NewIIDPareto(1.7, *rho)
		if err != nil {
			fatal(err)
		}
		model = m
	}
	rng := dist.NewRNG(*seed)

	start := time.Now()
	reported := 0
	for i := 0; i < *maxIters; i++ {
		fr, err := cl.Fetch(*session)
		if err != nil {
			fatal(err)
		}
		if fr.Converged {
			best, val, _, err := cl.Best(*session)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("converged after %d iterations (%d measurements, %s)\n",
				i, reported, time.Since(start).Round(time.Millisecond))
			fmt.Printf("best config %v  estimate %.4f  noise-free %.4f\n",
				best, val, db.Eval(best))
			return
		}
		// Only tagged fetches draw noise: Tag-0 answers must not shift the stream.
		if fr.Tag != 0 {
			y := model.Perturb(db.Eval(fr.Point), rng)
			if err := cl.Report(*session, fr.Tag, y); err == nil {
				reported++
			}
		}
	}
	fmt.Printf("iteration cap reached without convergence (%d measurements)\n", reported)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "harmonyclient:", err)
	os.Exit(1)
}
