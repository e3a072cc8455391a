package main

import (
	"math"

	"paratune/internal/cluster"
	"paratune/internal/core"
	"paratune/internal/dist"
	"paratune/internal/experiment"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// The fig10 sweep at Quick scale, as experiment.Fig10MultiSampling runs it.
// The replay is checked against the figure's own CSV, so a drift between
// these constants and the figure fails the run instead of going unnoticed.
var (
	fig10Rhos = []float64{0, 0.2, 0.4}
	fig10Ks   = []int{1, 3, 5}
)

const (
	fig10Reps   = 8
	fig10Budget = 100
	fig10Procs  = 8
)

// replayRun is the part of one tuning run the bit-for-bit check compares.
type replayRun struct {
	ntt, bestValue, trueValue float64
	best                      space.Point
	iterations                int
}

func (a replayRun) equal(b replayRun) bool {
	if math.Float64bits(a.ntt) != math.Float64bits(b.ntt) ||
		math.Float64bits(a.bestValue) != math.Float64bits(b.bestValue) ||
		math.Float64bits(a.trueValue) != math.Float64bits(b.trueValue) ||
		a.iterations != b.iterations || len(a.best) != len(b.best) {
		return false
	}
	for i := range a.best {
		if math.Float64bits(a.best[i]) != math.Float64bits(b.best[i]) {
			return false
		}
	}
	return true
}

// replayFig10 runs fig10's sweep through core.RunOnline. With tr non-nil the
// algorithm, evaluator, objective and estimator are wrapped in timing spans.
func replayFig10(seed int64, tr *Tracer) ([]replayRun, error) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: seed, Coverage: 0.85})
	rng := dist.NewRNG(seed + 3)
	seeds := make([]int64, fig10Reps)
	for r := range seeds {
		seeds[r] = rng.Int63()
	}
	ctx := &engineCtx{tr: tr, db: db, eval: noParent}
	var out []replayRun
	for _, rho := range fig10Rhos {
		for _, k := range fig10Ks {
			for rep := 0; rep < fig10Reps; rep++ {
				alg, err := core.NewPRO(core.Options{Space: db.Space(), R: 0.2})
				if err != nil {
					return nil, err
				}
				var model noise.Model = noise.None{}
				if rho > 0 {
					if model, err = noise.NewIIDPareto(1.7, rho); err != nil {
						return nil, err
					}
				}
				sim, err := cluster.New(fig10Procs, model, seeds[rep])
				if err != nil {
					return nil, err
				}
				var est sample.Estimator = sample.Single{}
				if k > 1 {
					if est, err = sample.NewMinOfK(k); err != nil {
						return nil, err
					}
				}
				var a core.Algorithm = alg
				var f objective.Function = db
				if tr != nil {
					ctx.run++
					a = newSpanAlg(alg, tr, "engine", ctx.run, &ctx.eval)
					f = &timedObjective{ctx: ctx}
					est = &timedEstimator{inner: est, tr: tr, name: "engine.estimator", parent: ctx.current}
				}
				res, err := core.RunOnline(a, core.OnlineConfig{Sim: sim, F: f, Est: est, Budget: fig10Budget})
				if err != nil {
					return nil, err
				}
				out = append(out, replayRun{
					ntt: res.NTT, bestValue: res.BestValue, trueValue: res.TrueValue,
					best: res.Best, iterations: res.Iterations,
				})
			}
		}
	}
	return out, nil
}

// engineCtx carries the replay's tracer and the evaluation span in progress,
// which the objective and estimator spans hang under. The replay runs on one
// goroutine.
type engineCtx struct {
	tr   *Tracer
	db   *objective.DB
	run  int64
	eval int32
}

func (c *engineCtx) current() (int32, int64) { return c.eval, c.run }

// timedObjective spans every surrogate evaluation, naming exact database
// hits and interpolated misses apart.
type timedObjective struct{ ctx *engineCtx }

func (o *timedObjective) Eval(x space.Point) float64 {
	name := "objective.interp"
	if _, ok := o.ctx.db.Lookup(x); ok {
		name = "objective.exact"
	}
	t0 := o.ctx.tr.Now()
	v := o.ctx.db.Eval(x)
	o.ctx.tr.Add(name, t0, o.ctx.tr.Now(), o.ctx.eval, o.ctx.run)
	return v
}

func (o *timedObjective) Space() *space.Space { return o.ctx.db.Space() }
func (o *timedObjective) String() string      { return o.ctx.db.String() }

// engineReplay replays fig10 plain and traced, requires the two to agree bit
// for bit and the plain replay to reproduce the figure's mean NTTs, and
// reports the engine-path layer metrics from the traced replay.
func engineReplay(seed int64, fig10 *experiment.Figure, res *runResult) {
	plain, err := replayFig10(seed, nil)
	res.check(err == nil, "engine replay: %v", err)
	tr := newTracer()
	traced, err := replayFig10(seed, tr)
	res.check(err == nil, "engine replay (traced): %v", err)
	if plain == nil || traced == nil {
		return
	}
	res.attempted += len(plain) + len(traced)
	same := len(plain) == len(traced)
	for i := 0; same && i < len(plain); i++ {
		same = plain[i].equal(traced[i])
	}
	res.check(same, "engine replay: wrapped run differs from the unwrapped run")
	res.check(replayMatchesFigure(plain, fig10), "engine replay: mean NTTs differ from fig10's CSV")

	lt := collectLayers(tr.Spans())
	exact, interp := lt.dur["objective.exact"], lt.dur["objective.interp"]
	res.metric("engine.step_self_us", mean(lt.self["engine.step"]), "us")
	res.metric("engine.eval_us", mean(lt.dur["engine.eval"]), "us")
	res.metric("sim.self_us", mean(lt.self["engine.eval"]), "us")
	res.metric("objective.exact_ns", mean(exact)*1e3, "ns")
	res.metric("objective.interp_ns", mean(interp)*1e3, "ns")
	res.metric("objective.interp_ratio", float64(len(interp))/float64(len(exact)+len(interp)), "ratio")
	res.metric("engine.estimator.calls", float64(lt.count("engine.estimator")), "count")
	res.metric("engine.estimator.ns", mean(lt.dur["engine.estimator"])*1e3, "ns")
	res.spans("engine", tr)
}

// replayMatchesFigure recomputes fig10's per-(ρ, K) mean NTT from the replay
// in the figure's own summation order and compares the bits with its CSV:
// column 0 is K, then a (mean, stderr) pair per ρ.
func replayMatchesFigure(runs []replayRun, fig10 *experiment.Figure) bool {
	if len(runs) != len(fig10Rhos)*len(fig10Ks)*fig10Reps || len(fig10.CSVRows) != len(fig10Ks) {
		return false
	}
	i := 0
	for ri := range fig10Rhos {
		for ki := range fig10Ks {
			var s float64
			for rep := 0; rep < fig10Reps; rep++ {
				s += runs[i].ntt
				i++
			}
			row := fig10.CSVRows[ki]
			if len(row) <= 1+2*ri || math.Float64bits(row[1+2*ri]) != math.Float64bits(s/fig10Reps) {
				return false
			}
		}
	}
	return true
}
