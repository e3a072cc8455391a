// Network tuning: the Active Harmony deployment shape. Starts the tuning
// server on a loopback TCP port, then launches four "SPMD processes" that
// fetch configurations, measure the GS2 surrogate under noise, and report
// back over the wire until the session converges.
//
// Each measurement's noise is drawn from a stream keyed by (seed, tag), and
// a tag names one sample slot of one candidate, so a sample measures the
// same whichever process it is granted to. The best configuration and the
// server's estimate are therefore the same on every run; only which process
// took how many measurements, and the wall time, vary with scheduling.
//
//	go run ./examples/networktuning
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"paratune"
	"paratune/internal/dist"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/space"
)

func main() {
	l, srv, err := paratune.ListenAndServe("127.0.0.1:0", paratune.ServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	defer srv.Close()
	fmt.Printf("tuning server on %s\n", l.Addr())

	db := objective.GenerateGS2(objective.GS2Config{Seed: 9})
	sp := objective.GS2Space()
	params := make([]space.Parameter, sp.Dim())
	for i := range params {
		params[i] = sp.Param(i)
	}

	const (
		clients   = 4
		noiseSeed = 1
	)
	var wg sync.WaitGroup
	var once sync.Once
	stop := make(chan struct{})
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := paratune.Dial(l.Addr().String())
			if err != nil {
				log.Fatal(err)
			}
			defer cl.Close()
			if err := cl.Register("gs2", params); err != nil {
				log.Fatal(err)
			}
			model, err := noise.NewIIDPareto(1.7, 0.15)
			if err != nil {
				log.Fatal(err)
			}
			measurements := 0
			for {
				select {
				case <-stop:
					fmt.Printf("client %d: done after %d measurements\n", id, measurements)
					return
				default:
				}
				fr, err := cl.Fetch("gs2")
				if err != nil {
					log.Fatal(err)
				}
				if fr.Converged {
					once.Do(func() { close(stop) })
					fmt.Printf("client %d: saw convergence after %d measurements\n", id, measurements)
					return
				}
				if fr.Tag != 0 {
					rng := dist.NewRNG(noiseSeed<<32 | int64(fr.Tag))
					if err := cl.Report("gs2", fr.Tag, model.Perturb(db.Eval(fr.Point), rng)); err == nil {
						measurements++
					}
				}
			}
		}(c)
	}
	wg.Wait()

	best, estimate, _, err := srv.Best("gs2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconverged in %s\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("best config ntheta=%g negrid=%g nodes=%g\n", best[0], best[1], best[2])
	fmt.Printf("server estimate %.4f, noise-free value %.4f (centre costs %.4f)\n",
		estimate, db.Eval(best), db.Eval(sp.Center()))
}
