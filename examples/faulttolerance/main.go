// Fault tolerance: the full measurement pipeline under injected failures.
// The example runs the end-to-end fault drill from the robustness work in
// three acts:
//
//  1. A barrier-synchronised cluster simulation where processors crash
//     mid-step, reports are dropped, and values arrive corrupted — PRO still
//     converges because crashed processors' work is redistributed, garbage is
//     rejected at the pipeline boundary, and permanently lost measurements
//     are scored at the worst known value (a pessimistic stand-in that rank
//     ordering tolerates).
//
//  2. A harmony tuning server driven by 8 simulated clients, taking turns, with
//     2 injected client crashes, 10% dropped reports, and 5% corrupted
//     reports. Batch deadlines with bounded reissue keep the session moving;
//     the converged result is compared against a fault-free run.
//
//  3. A mid-tuning server "crash": the session is checkpointed, the server
//     discarded, a fresh server restored from the blob, and tuning resumes
//     without resetting the simplex.
//
//     go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"paratune/internal/cluster"
	"paratune/internal/core"
	"paratune/internal/dist"
	"paratune/internal/fault"
	"paratune/internal/harmony"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

func main() {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 31})

	// --- Act 1: fault-injected cluster simulation ---------------------------
	fmt.Println("act 1: PRO on an 8-processor simulated cluster with injected faults")
	model, err := noise.NewIIDPareto(1.7, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	inj, err := fault.New(fault.Config{
		Seed:   42,
		PCrash: 0.001, MaxCrashes: 2,
		PStraggler: 0.02,
		PDrop:      0.05,
		PCorrupt:   0.03,
	})
	if err != nil {
		log.Fatal(err)
	}
	sim, err := cluster.New(8, model, 7)
	if err != nil {
		log.Fatal(err)
	}
	sim.SetFaults(inj)
	ev := cluster.NewEvaluator(sim, db, mustMinOfK(3))
	alg, err := core.NewPRO(core.Options{Space: db.Space()})
	if err != nil {
		log.Fatal(err)
	}
	if err := alg.Init(ev); err != nil {
		log.Fatal(err)
	}
	for !alg.Converged() {
		if _, err := alg.Step(ev); err != nil {
			log.Fatal(err)
		}
	}
	best, _ := alg.Best()
	plan := inj.Plan()
	fmt.Printf("  injected: %d crashes, %d stragglers, %d drops, %d corruptions\n",
		plan.Count(fault.Crash), plan.Count(fault.Straggler),
		plan.Count(fault.Drop), plan.Count(fault.Corrupt))
	fmt.Printf("  survivors: %d/8 processors; best %v  noise-free step time %.4f\n\n",
		sim.Live(), best, db.Eval(best))

	// --- Act 2: the harmony fault drill -------------------------------------
	fmt.Println("act 2: harmony server, 8 clients, 2 crashes, 10% drops, 5% corruption")
	cleanBest := drill(db, nil)
	drillInj, err := fault.New(fault.Config{
		Seed:   77,
		PCrash: 0.02, MaxCrashes: 2,
		PDrop:    0.10,
		PCorrupt: 0.05,
	})
	if err != nil {
		log.Fatal(err)
	}
	faultyBest := drill(db, drillInj)
	dp := drillInj.Plan()
	fmt.Printf("  injected: %d crashes, %d drops, %d corruptions\n",
		dp.Count(fault.Crash), dp.Count(fault.Drop), dp.Count(fault.Corrupt))
	clean, faulty := db.Eval(cleanBest), db.Eval(faultyBest)
	fmt.Printf("  fault-free best %v -> %.4f\n", cleanBest, clean)
	fmt.Printf("  faulty     best %v -> %.4f  (%.1f%% off fault-free)\n\n",
		faultyBest, faulty, 100*(faulty-clean)/clean)

	// --- Act 3: checkpoint through a server crash ---------------------------
	fmt.Println("act 3: kill the server mid-tuning, restore from checkpoint")
	srv1 := harmony.NewServer(harmony.ServerOptions{Estimator: mustMinOfK(1)})
	if err := srv1.Register("gs2", gs2Params(db)); err != nil {
		log.Fatal(err)
	}
	reports := feed(srv1, db, 40)
	blob, err := srv1.Checkpoint("gs2")
	if err != nil {
		log.Fatal(err)
	}
	srv1.Close() // the "crash": every in-memory session is gone
	fmt.Printf("  checkpointed after %d reports (%d bytes), server killed\n", reports, len(blob))

	srv2 := harmony.NewServer(harmony.ServerOptions{Estimator: mustMinOfK(1)})
	defer srv2.Close()
	if err := srv2.RestoreSession(blob); err != nil {
		log.Fatal(err)
	}
	more := feedUntilConverged(srv2, db)
	rbest, rval, _, err := srv2.Best("gs2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  restored server converged after %d more reports (simplex not reset)\n", more)
	fmt.Printf("  best %v  estimate %.4f  noise-free %.4f\n", rbest, rval, db.Eval(rbest))
}

// drill runs the 8-client fault drill against an in-process harmony server
// and returns the converged best point. A nil injector runs it fault-free.
// One goroutine drives the clients round-robin, so the noise and fault
// draws happen in the same order on every run: the turn passes on only
// after a tagged fetch, and a fetch with no work (Tag 0, between batches)
// retries the same client after a pause.
func drill(db objective.Function, in *fault.Injector) space.Point {
	srv := harmony.NewServer(harmony.ServerOptions{
		Estimator:          mustMinOfK(3),
		MeasurementTimeout: 100 * time.Millisecond,
		MaxReissues:        3,
	})
	defer srv.Close()
	if err := srv.Register("drill", gs2Params(db)); err != nil {
		log.Fatal(err)
	}
	model, err := noise.NewIIDPareto(1.7, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	live := make([]int, 8) // the client ids still running, in turn order
	rngs := make([]*rand.Rand, len(live))
	for id := range live {
		live[id], rngs[id] = id, dist.NewRNG(int64(100+id))
	}
	for turn := 0; len(live) > 0; {
		id := live[turn]
		fr, err := srv.Fetch("drill")
		if err != nil || fr.Converged {
			break
		}
		if fr.Tag == 0 {
			time.Sleep(time.Millisecond) // between batches
			continue
		}
		y := model.Perturb(db.Eval(fr.Point), rngs[id])
		switch out := in.Next(id, fr.Tag); out.Kind {
		case fault.Crash:
			// This client process dies for good; the next one takes the turn.
			live = append(live[:turn], live[turn+1:]...)
			if turn == len(live) {
				turn = 0
			}
			continue
		case fault.Drop:
			// The measurement ran; its report is lost in transit.
		case fault.Corrupt:
			_ = srv.Report("drill", fr.Tag, out.Value) // garbage reaches the server boundary
		default:
			_ = srv.Report("drill", fr.Tag, y)
		}
		turn = (turn + 1) % len(live)
	}
	best, _, conv, err := srv.Best("drill")
	if err != nil || !conv {
		log.Fatalf("drill did not converge: %v", err)
	}
	return best
}

// feed drives a single deterministic client for n accepted reports.
func feed(srv *harmony.Server, db objective.Function, n int) int {
	reports := 0
	for reports < n {
		fr, err := srv.Fetch("gs2")
		if err != nil {
			log.Fatal(err)
		}
		if fr.Converged {
			break
		}
		if fr.Tag == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		if srv.Report("gs2", fr.Tag, db.Eval(fr.Point)) == nil {
			reports++
		}
	}
	return reports
}

// feedUntilConverged drives the client loop until the session converges.
func feedUntilConverged(srv *harmony.Server, db objective.Function) int {
	reports := 0
	for {
		fr, err := srv.Fetch("gs2")
		if err != nil {
			log.Fatal(err)
		}
		if fr.Converged {
			return reports
		}
		if fr.Tag == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		if srv.Report("gs2", fr.Tag, db.Eval(fr.Point)) == nil {
			reports++
		}
	}
}

func gs2Params(db objective.Function) []space.Parameter {
	sp := db.Space()
	params := make([]space.Parameter, sp.Dim())
	for i := range params {
		params[i] = sp.Param(i)
	}
	return params
}

func mustMinOfK(k int) sample.Estimator {
	est, err := sample.NewMinOfK(k)
	if err != nil {
		log.Fatal(err)
	}
	return est
}
