package fault

import (
	"math"
	"testing"

	"paratune/internal/event"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{PDrop: -0.1}); err == nil {
		t.Error("negative probability should fail")
	}
	if _, err := New(Config{PDrop: 1.5}); err == nil {
		t.Error("probability > 1 should fail")
	}
	if _, err := New(Config{PCrash: 0.5, PDrop: 0.6}); err == nil {
		t.Error("probabilities summing past 1 should fail")
	}
	if _, err := New(Config{PDrop: math.NaN()}); err == nil {
		t.Error("NaN probability should fail")
	}
	if _, err := New(Config{PCrash: 0.25, PStraggler: 0.25, PDrop: 0.25, PCorrupt: 0.25}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNilInjectorIsSafe(t *testing.T) {
	var in *Injector
	out := in.Next(3, 7)
	if out.Kind != None {
		t.Errorf("nil injector injected %v", out.Kind)
	}
	if in.Plan().Len() != 0 {
		t.Error("nil injector recorded state")
	}
}

func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 42, PCrash: 0.05, PStraggler: 0.1, PDrop: 0.1, PCorrupt: 0.1}
	a, _ := New(cfg)
	b, _ := New(cfg)
	same := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	for i := 0; i < 1000; i++ {
		oa, ob := a.Next(i%8, uint64(i)), b.Next(i%8, uint64(i))
		if oa.Kind != ob.Kind || !same(oa.Factor, ob.Factor) || !same(oa.Value, ob.Value) {
			t.Fatalf("attempt %d diverged: %+v vs %+v", i, oa, ob)
		}
	}
	if a.Plan().Len() != b.Plan().Len() {
		t.Error("plans diverged")
	}
}

func TestRatesAndPlan(t *testing.T) {
	in, err := New(Config{Seed: 7, PCrash: 0.02, PStraggler: 0.1, PDrop: 0.1, PCorrupt: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	for i := 0; i < n; i++ {
		out := in.Next(0, 0)
		switch out.Kind {
		case Straggler:
			if out.Factor < 2 {
				t.Fatalf("straggler factor %g below minimum", out.Factor)
			}
		case Corrupt:
			// Most corrupt values fail validation outright; the "huge but
			// finite" menu entry survives it by design (indistinguishable
			// from a very slow run) and is caught by rank ordering instead.
			if ValidValue(out.Value) && out.Value < 1e200 {
				t.Fatalf("corrupt value %g looks like a plausible measurement", out.Value)
			}
		}
	}
	plan := in.Plan()
	for kind, want := range map[Kind]float64{Crash: 0.02, Straggler: 0.1, Drop: 0.1, Corrupt: 0.05} {
		got := float64(plan.Count(kind)) / n
		if got < want*0.7 || got > want*1.3 {
			t.Errorf("%v rate = %.4f, want ≈ %.4f", kind, got, want)
		}
	}
	if plan.Count(Crash) != in.crashes {
		t.Error("crash count mismatch between plan and injector")
	}
	if got := plan.Count(Crash) + plan.Count(Straggler) + plan.Count(Drop) + plan.Count(Corrupt); got != plan.Len() {
		t.Errorf("plan length %d != sum of kinds %d", plan.Len(), got)
	}
}

func TestMaxCrashes(t *testing.T) {
	in, _ := New(Config{Seed: 1, PCrash: 1, MaxCrashes: 2})
	for i := 0; i < 100; i++ {
		in.Next(i, 0)
	}
	if n := in.Plan().Count(Crash); n != 2 {
		t.Errorf("crashes = %d, want 2", n)
	}
}

func TestCorruptMenuRotates(t *testing.T) {
	in, _ := New(Config{Seed: 1, PCorrupt: 1})
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		out := in.Next(0, 0)
		if out.Kind != Corrupt {
			t.Fatalf("expected corrupt, got %v", out.Kind)
		}
		switch {
		case math.IsNaN(out.Value):
			seen["nan"] = true
		case math.IsInf(out.Value, 1):
			seen["+inf"] = true
		case math.IsInf(out.Value, -1):
			seen["-inf"] = true
		case out.Value < 0:
			seen["neg"] = true
		default:
			seen["huge"] = true
		}
	}
	if len(seen) != 5 {
		t.Errorf("corrupt menu produced %d distinct classes, want 5: %v", len(seen), seen)
	}
}

func TestValidValue(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.001} {
		if ValidValue(bad) {
			t.Errorf("ValidValue(%g) = true", bad)
		}
	}
	for _, good := range []float64{0, 1, 1e300} {
		if !ValidValue(good) {
			t.Errorf("ValidValue(%g) = false", good)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{None: "none", Crash: "crash", Straggler: "straggler", Drop: "drop", Corrupt: "corrupt", Kind(99): "Kind(99)"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// injectorProbe is a recorder that checks, at every event, that neither the
// injector's mutex nor its plan's is held, then reads the plan back. TryLock
// turns an emission under either into a test failure instead of a hang; the
// test draws from one goroutine, so nothing else holds them.
type injectorProbe struct {
	t  *testing.T
	in *Injector
	n  int
}

func (p *injectorProbe) Record(e event.Event) {
	p.n++
	if !p.in.mu.TryLock() {
		p.t.Errorf("%s event recorded under the injector lock", e.EventKind())
		return
	}
	p.in.mu.Unlock()
	if !p.in.plan.mu.TryLock() {
		p.t.Errorf("%s event recorded under the plan lock", e.EventKind())
		return
	}
	p.in.plan.mu.Unlock()
	if got := p.in.Plan().Len(); got != p.n {
		p.t.Errorf("plan holds %d events at the %dth mirror", got, p.n)
	}
}

// A recorder may call back into the injector: no fault is mirrored under
// the injector's or the plan's lock, and each mirror follows its plan entry.
func TestRecorderMayReadInjector(t *testing.T) {
	in, err := New(Config{Seed: 3, PCrash: 0.1, PStraggler: 0.2, PDrop: 0.2, PCorrupt: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	p := &injectorProbe{t: t, in: in}
	in.SetRecorder(p)
	for i := range 200 {
		in.Next(i%4, uint64(i))
	}
	for _, k := range []Kind{Crash, Straggler, Drop, Corrupt} {
		if in.Plan().Count(k) == 0 {
			t.Errorf("no %v fault drawn; an emission path went unprobed", k)
		}
	}
	if p.n != in.Plan().Len() {
		t.Errorf("recorder saw %d events, plan holds %d", p.n, in.Plan().Len())
	}
}
