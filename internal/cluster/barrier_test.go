package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"paratune/internal/fault"
	"paratune/internal/noise"
	"paratune/internal/space"
)

// TestRunStepBarrierOnlyMatchesObserved runs the same step sequence on two
// simulators built alike, one observing only a prefix of each assignment
// and one observing every entry, and checks bit for bit that barrier-only
// entries change nothing: step times, the prefix's observations, crashed
// processors, and each processor stream's next draw. The sweep covers
// seeds, processor counts, observed prefixes, ρ and every fault kind.
func TestRunStepBarrierOnlyMatchesObserved(t *testing.T) {
	// Fill is one shared point; other is a second barrier-only noise-free
	// time, so deferred draws of two values meet in one step.
	fill, other := space.Point{5, 5}, space.Point{9, 0}
	injectors := map[string]fault.Config{
		"none":      {},
		"crash":     {PCrash: 0.03},
		"straggler": {PStraggler: 0.2},
		"drop":      {PDrop: 0.2},
		"corrupt":   {PCorrupt: 0.2},
		"mixed":     {PCrash: 0.02, PStraggler: 0.1, PDrop: 0.1, PCorrupt: 0.1},
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, p := range []int{1, 8, 64} {
			for _, prefix := range uniqueInts(0, 1, p/8, p/2, p) {
				for _, rho := range []float64{0, 0.2, 0.4} {
					for name, cfg := range injectors {
						label := fmt.Sprintf("seed=%d P=%d prefix=%d rho=%g faults=%s", seed, p, prefix, rho, name)
						cfg.Seed = seed + 100
						assign := make([]space.Point, p)
						for k := range assign {
							switch {
							case k < prefix:
								assign[k] = space.Point{float64(k % 11), float64(k / 11 % 11)}
							case k%5 == 4:
								assign[k] = other
							default:
								assign[k] = fill
							}
						}
						compareBarrierOnly(t, label, seed, rho, cfg, assign, prefix)
					}
				}
			}
		}
	}
}

func compareBarrierOnly(t *testing.T, label string, seed int64, rho float64, cfg fault.Config, assign []space.Point, prefix int) {
	t.Helper()
	f := bowl()
	model, err := noise.NewIIDPareto(1.7, rho)
	if err != nil {
		t.Fatal(err)
	}
	sims := [2]*Sim{}
	for i := range sims {
		if sims[i], err = New(len(assign), model, seed); err != nil {
			t.Fatal(err)
		}
		in, err := fault.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sims[i].SetFaults(in)
	}
	got, want := sims[0], sims[1]
	for step := 0; step < 30; step++ {
		// Odd steps leave a processor idle, so a redistributed run can land
		// on a processor with no time yet.
		n := want.Live()
		if step%2 == 1 && n > 1 {
			n--
		}
		n = max(n, 1)
		observed := min(prefix, n)
		gotObs, gotErr := got.RunStep(f, assign[:n], observed)
		wantObs, wantErr := want.RunStep(f, assign[:n], n)
		if !errors.Is(gotErr, wantErr) {
			t.Fatalf("%s step %d: error %v, observing every entry gives %v", label, step, gotErr, wantErr)
		}
		if wantErr != nil {
			break
		}
		if len(gotObs) != observed {
			t.Fatalf("%s step %d: %d observations, want %d", label, step, len(gotObs), observed)
		}
		for k, y := range gotObs {
			if math.Float64bits(y) != math.Float64bits(wantObs[k]) {
				t.Fatalf("%s step %d entry %d: observed %v, want %v", label, step, k, y, wantObs[k])
			}
		}
		gt, wt := got.stepTimes[step], want.stepTimes[step]
		if math.Float64bits(gt) != math.Float64bits(wt) {
			t.Fatalf("%s step %d: T_k = %v, want %v", label, step, gt, wt)
		}
		for p := range got.dead {
			if got.dead[p] != want.dead[p] {
				t.Fatalf("%s step %d: processor %d dead=%v, want %v", label, step, p, got.dead[p], want.dead[p])
			}
		}
	}
	for p := range got.rngs {
		if g, w := got.rngs[p].Float64(), want.rngs[p].Float64(); g != w {
			t.Fatalf("%s: processor %d stream's next draw is %v, want %v", label, p, g, w)
		}
	}
}

func uniqueInts(xs ...int) []int {
	var out []int
	for _, x := range xs {
		if !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return out
}

// TestRunStepObservedValidation rejects an observed count outside the
// assignment.
func TestRunStepObservedValidation(t *testing.T) {
	sim, _ := New(4, noise.None{}, 1)
	assign := []space.Point{{1, 1}, {2, 2}}
	for _, observed := range []int{-1, 3} {
		if _, err := sim.RunStep(bowl(), assign, observed); err == nil {
			t.Errorf("observed=%d of 2 entries: want an error", observed)
		}
	}
	if sim.Steps() != 0 {
		t.Errorf("rejected steps advanced the clock to %d", sim.Steps())
	}
}
