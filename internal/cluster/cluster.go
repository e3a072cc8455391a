// Package cluster simulates the SPMD execution model of §2: P processors run
// one iteration of the application per time step, a barrier synchronises
// them, and the step cost is the worst observed time, T_k = max_p t_{p,k}
// (Eq. 1). Total_Time(K) = Σ T_k (Eq. 2) is the on-line tuning metric, and
// NTT = (1-ρ)·Total_Time (Eq. 23) normalises across idle-throughput levels.
//
// The simulator advances in whole time steps. Each step evaluates one
// candidate configuration per assigned processor under an independent noise
// draw; the tuning algorithms consume the observations while the simulator
// accumulates the time the application actually spent.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"paratune/internal/dist"
	"paratune/internal/event"
	"paratune/internal/fault"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// ErrAllProcessorsCrashed is returned when fault injection has permanently
// removed every processor, so no further work can run.
var ErrAllProcessorsCrashed = errors.New("cluster: all processors have crashed")

// Sim is a barrier-synchronised SPMD cluster simulator.
type Sim struct {
	p         int
	model     noise.Model
	stepModel noise.StepAware // non-nil when model draws shared per-step state
	transform noise.Transform // non-nil when Perturb transforms one uniform draw
	rngs      []*rand.Rand    // one independent stream per processor
	stepRng   *rand.Rand      // stream for machine-wide per-step draws
	stepTimes []float64       // T_k for every elapsed step
	totalTime float64
	faults    *fault.Injector
	dead      []bool         // processors removed by injected crashes
	rec       event.Recorder // nil records nothing

	// Scratch buffers sized from P at New and reused by every RunStep, so
	// a step allocates nothing. obsScratch holds the observations RunStep
	// returns, valid until the next step.
	liveScratch  []int
	procScratch  []float64
	obsScratch   []float64
	jobScratch   []stepJob // len(assign) jobs plus one re-run per crash
	fxScratch    []float64 // f at each assigned candidate
	firstScratch []int     // the first candidate of each distinct point
	deferred     []draw    // barrier-only draws not yet transformed
	rScratch     []float64 // one f's deferred draws, for Slowest
}

// stepJob is one queued execution within a step: candidate cand runs on
// processor proc (-1 when the target is resolved at execution time after a
// crash redistributes the work).
type stepJob struct{ cand, proc int }

// draw is a barrier-only execution whose uniform r has been drawn from
// processor proc's stream but not yet transformed into a time: proc's
// accumulated time this step is Apply(f, r).
type draw struct {
	proc int
	f, r float64
}

// New creates a simulator with p processors, the given variability model,
// and per-processor deterministic random streams derived from seed. Models
// implementing noise.StepAware get one BeginStep call per time step, so
// their interference is shared machine-wide within the step.
func New(p int, model noise.Model, seed int64) (*Sim, error) {
	if p < 1 {
		return nil, fmt.Errorf("cluster: need at least one processor, got %d", p)
	}
	if model == nil {
		model = noise.None{}
	}
	// A step holds at most P entries in each buffer and 2P jobs: at most P
	// candidates start, each on its own processor, and a crash kills its
	// processor, so at most P re-run. A draw is deferred only on a processor
	// with no time yet, and each re-run applies the waiting draws first.
	fs, is := make([]float64, 4*p), make([]int, 2*p)
	s := &Sim{
		p: p, model: model, rngs: make([]*rand.Rand, p), dead: make([]bool, p),
		liveScratch:  is[:0:p],
		firstScratch: is[p:p],
		procScratch:  fs[:p:p],
		obsScratch:   fs[p : 2*p : 2*p],
		fxScratch:    fs[2*p : 2*p : 3*p],
		rScratch:     fs[3*p : 3*p],
		jobScratch:   make([]stepJob, 0, 2*p),
		deferred:     make([]draw, 0, p),
	}
	root := dist.NewRNG(seed)
	for i := range s.rngs {
		s.rngs[i] = dist.NewRNG(root.Int63())
	}
	s.stepRng = dist.NewRNG(root.Int63())
	if sm, ok := model.(noise.StepAware); ok {
		s.stepModel = sm
	}
	if tm, ok := model.(noise.Transform); ok {
		s.transform = tm
	}
	return s, nil
}

// beginStep advances machine-wide noise state at a step boundary.
func (s *Sim) beginStep() {
	if s.stepModel != nil {
		s.stepModel.BeginStep(s.stepRng)
	}
}

// P returns the processor count.
func (s *Sim) P() int { return s.p }

// SetFaults attaches a fault injector; nil detaches it. Faults are drawn per
// measurement attempt inside RunStep.
func (s *Sim) SetFaults(in *fault.Injector) { s.faults = in }

// Faults returns the attached injector (nil when fault-free).
func (s *Sim) Faults() *fault.Injector { return s.faults }

// SetRecorder attaches an event recorder; each completed time step emits one
// StepTime event and each evaluator batch one BatchEvaluated event. nil
// detaches it.
func (s *Sim) SetRecorder(r event.Recorder) { s.rec = r }

// Live returns the number of processors that have not crashed.
func (s *Sim) Live() int {
	n := 0
	for _, d := range s.dead {
		if !d {
			n++
		}
	}
	return n
}

// liveProcs returns the indices of processors still alive. The returned
// slice aliases the simulator's scratch buffer and is valid until the next
// call.
func (s *Sim) liveProcs() []int {
	out := s.liveScratch[:0]
	for i, d := range s.dead {
		if !d {
			out = append(out, i)
		}
	}
	s.liveScratch = out
	return out
}

// leastLoaded returns the live processor with the smallest accumulated time
// this step, or -1 when every processor has crashed.
func (s *Sim) leastLoaded(procTime []float64) int {
	best := -1
	for i := range procTime {
		if s.dead[i] {
			continue
		}
		if best < 0 || procTime[i] < procTime[best] {
			best = i
		}
	}
	return best
}

// Model returns the variability model.
func (s *Sim) Model() noise.Model { return s.model }

// Steps returns the number of elapsed time steps.
func (s *Sim) Steps() int { return len(s.stepTimes) }

// TotalTime returns Total_Time(Steps()) per Eq. 2.
func (s *Sim) TotalTime() float64 { return s.totalTime }

// StepTimes returns the per-step worst-case times T_k. The slice shares the
// simulator's record and must not be written; it is capped at its length,
// so later steps never show through it and an append to it copies.
func (s *Sim) StepTimes() []float64 {
	return s.stepTimes[:len(s.stepTimes):len(s.stepTimes)]
}

// ReserveSteps sizes the step record for n steps in all, so that the steps
// up to the n-th append without growing it.
func (s *Sim) ReserveSteps(n int) {
	if n > len(s.stepTimes) {
		s.stepTimes = slices.Grow(s.stepTimes, n-len(s.stepTimes))
	}
}

// TotalTimeAt returns Total_Time(k) for k <= Steps(); it errors if fewer
// than k steps have elapsed.
func (s *Sim) TotalTimeAt(k int) (float64, error) {
	if k < 0 || k > len(s.stepTimes) {
		return 0, fmt.Errorf("cluster: TotalTimeAt(%d) with %d elapsed steps", k, len(s.stepTimes))
	}
	var sum float64
	for _, t := range s.stepTimes[:k] {
		sum += t
	}
	return sum, nil
}

// NTT returns the Normalized Total Time (1-ρ)·Total_Time of Eq. 23, using
// the model's idle throughput.
func (s *Sim) NTT() float64 { return (1 - s.model.Rho()) * s.totalTime }

// RunStep executes one SPMD time step. assign maps processors to candidate
// configurations: candidate i runs on the i-th live processor. len(assign)
// must be in [1, Live()]; processors beyond len(assign) idle (they are
// running the same binary but their times are not gated on, see footnote 1 of
// the paper). The caller observes the first observed entries: RunStep returns
// their observed times and records T_k = max accumulated time over live
// processors. Assigned entries that share one slice are one point: f is
// evaluated there once per step, and each processor perturbs that value with
// its own noise draw. The returned observations live in the simulator's
// scratch and are valid until the next RunStep; a caller that keeps them
// copies them first.
//
// The entries from observed on are barrier-only: they gate the barrier but
// nobody reads their values (Evaluator.Fill, the production phase of an
// on-line run). Under a noise.Transform model each still draws its uniform
// from its processor's stream in order, but only the draws that can be the
// step's maximum are transformed (noise.IIDPareto.Slowest, the top rank of
// dist.Pareto.OrderStat: those within a relative 2^-20 of the smallest
// 1-r). Step times, observations and stream states are bit-identical to
// observing every entry.
//
// With a fault injector attached, each execution may crash its processor
// (the candidate is redistributed to the least-loaded surviving processor,
// whose step time then includes the re-run), stretch by a straggler factor,
// lose its report (the returned observation is NaN — time was spent but no
// value arrived), or deliver a corrupted value. Dead processors stop gating
// the barrier; the redistributed work still counts toward T_k. A straggler
// transforms its own draw, and a redistribution transforms every deferred
// draw before it compares the processors' times.
func (s *Sim) RunStep(f objective.Function, assign []space.Point, observed int) ([]float64, error) {
	if len(assign) == 0 {
		return nil, errEmptyAssignment
	}
	if observed < 0 || observed > len(assign) {
		return nil, errObserved(observed, len(assign))
	}
	live := s.liveProcs()
	if len(live) == 0 {
		return nil, ErrAllProcessorsCrashed
	}
	if len(assign) > len(live) {
		return nil, errCandidateOverflow(len(assign), len(live))
	}
	s.beginStep()
	// Every observed candidate writes its entry before the step returns.
	obs := s.obsScratch[:observed]
	fx := s.evalAssigned(f, assign)
	procTime := s.procTimeScratch()
	queue := s.jobScratch[:0]
	for i := range assign {
		queue = append(queue, stepJob{cand: i, proc: live[i]})
	}
	for qi := 0; qi < len(queue); qi++ {
		j := queue[qi]
		if j.proc < 0 || s.dead[j.proc] {
			// Redistributed (or orphaned by an earlier crash this step):
			// resolve the target at execution time so re-runs balance across
			// the least-loaded survivors.
			s.applyDeferred(procTime)
			if j.proc = s.leastLoaded(procTime); j.proc < 0 {
				return nil, ErrAllProcessorsCrashed
			}
		}
		// A barrier-only execution on a processor with no time yet this step
		// defers its transform; 0 + y is y, so the sum is unchanged.
		x, rng := fx[j.cand], s.rngs[j.proc]
		lazy := j.cand >= observed && s.transform != nil && procTime[j.proc] == 0 && s.transform.Draws(x)
		var y, r float64
		if lazy {
			r = rng.Float64()
		} else {
			y = s.model.Perturb(x, rng)
		}
		out := s.faults.Next(j.proc, 0)
		switch out.Kind {
		case fault.Crash:
			// The processor dies mid-execution: its partial work is wasted and
			// it no longer gates the barrier; the candidate re-runs elsewhere.
			s.dead[j.proc] = true
			if s.Live() == 0 {
				return nil, ErrAllProcessorsCrashed
			}
			queue = append(queue, stepJob{cand: j.cand, proc: -1})
			continue
		case fault.Straggler:
			if lazy {
				y, lazy = s.transform.Apply(x, r), false
			}
			y *= out.Factor
		}
		if lazy {
			s.deferred = append(s.deferred, draw{proc: j.proc, f: x, r: r})
			continue
		}
		procTime[j.proc] += y
		if j.cand < observed {
			switch out.Kind {
			case fault.Drop:
				obs[j.cand] = math.NaN()
			case fault.Corrupt:
				obs[j.cand] = out.Value
			default:
				obs[j.cand] = y
			}
		}
	}
	worst := 0.0
	for p, t := range procTime {
		if !s.dead[p] && t > worst {
			worst = t
		}
	}
	worst = s.slowestDeferred(worst)
	s.jobScratch = queue[:0]
	s.recordStep(worst)
	return obs, nil
}

// applyDeferred transforms every deferred draw into its processor's time.
func (s *Sim) applyDeferred(procTime []float64) {
	for _, d := range s.deferred {
		procTime[d.proc] += s.transform.Apply(d.f, d.r)
	}
	s.deferred = s.deferred[:0]
}

// slowestDeferred returns the larger of worst and the slowest deferred draw,
// handing each noise-free time's draws to Slowest in turn. Every deferred
// draw sits on a live processor: a crash discards its own draw, and a
// redistribution applies them all first.
func (s *Sim) slowestDeferred(worst float64) float64 {
	rest := s.deferred
	for len(rest) > 0 {
		f := rest[0].f
		fb := math.Float64bits(f)
		rs, keep := s.rScratch[:0], rest[:0]
		for _, d := range rest {
			if math.Float64bits(d.f) == fb {
				rs = append(rs, d.r)
			} else {
				keep = append(keep, d)
			}
		}
		if y := s.transform.Slowest(f, rs); y > worst {
			worst = y
		}
		s.rScratch, rest = rs, keep
	}
	s.deferred = s.deferred[:0]
	return worst
}

// RunStep's errors live outside the hot path so RunStep itself carries no
// fmt dependency.
var errEmptyAssignment = errors.New("cluster: empty assignment")

func errObserved(observed, n int) error {
	return fmt.Errorf("cluster: %d observed entries outside an assignment of %d", observed, n)
}

func errCandidateOverflow(n, live int) error {
	return fmt.Errorf("cluster: %d candidates exceed %d live processors", n, live)
}

// evalAssigned returns f at every assigned candidate, calling f once per
// distinct point: processors that replicate a candidate, run Fill or run
// RunFixed's configuration share one slice, so identity finds them, and
// objective.Function.Eval is a pure function of x. The result aliases
// scratch and is valid until the next step.
func (s *Sim) evalAssigned(f objective.Function, assign []space.Point) []float64 {
	fx, first := s.fxScratch[:0], s.firstScratch[:0]
	for i, x := range assign {
		k := len(first) - 1
		for ; k >= 0; k-- {
			if y := assign[first[k]]; len(y) == len(x) && (len(x) == 0 || &y[0] == &x[0]) {
				break
			}
		}
		if k >= 0 {
			fx = append(fx, fx[first[k]])
			continue
		}
		fx, first = append(fx, f.Eval(x)), append(first, i)
	}
	s.fxScratch, s.firstScratch = fx, first
	return fx
}

// procTimeScratch returns the per-processor accumulator zeroed for a new
// step.
func (s *Sim) procTimeScratch() []float64 {
	clear(s.procScratch)
	return s.procScratch
}

// recordStep commits one barrier-gated step time and mirrors it into the
// event stream.
func (s *Sim) recordStep(worst float64) {
	s.stepTimes = append(s.stepTimes, worst)
	s.totalTime += worst
	if s.rec != nil {
		s.rec.Record(event.StepTime{Step: len(s.stepTimes), T: worst})
	}
}

// RunFixed runs the application at a fixed configuration for n steps on all
// P processors — the §4.3 methodology behind the Fig. 3 traces. It returns
// traces[p][k], the time of step k on processor p; each step is one RunStep
// with every processor assigned x.
func (s *Sim) RunFixed(f objective.Function, x space.Point, n int) ([][]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: RunFixed needs n >= 1, got %d", n)
	}
	assign := make([]space.Point, s.p)
	traces := make([][]float64, s.p)
	for p := range traces {
		assign[p] = x
		traces[p] = make([]float64, n)
	}
	for k := 0; k < n; k++ {
		ys, err := s.RunStep(f, assign, len(assign))
		if err != nil {
			return nil, err
		}
		for p, y := range ys {
			traces[p][k] = y
		}
	}
	return traces, nil
}

// ObservationSink receives every raw, valid measurement of a real candidate
// as it is observed — before any estimator reduces it. Fill executions and
// fault-corrupted reports are not measurements and are never forwarded. The
// measurement database (internal/measuredb) implements this to persist the
// observations that back cross-session warm starts.
type ObservationSink interface {
	Observe(p space.Point, v float64)
}

// Evaluator turns the step-based simulator into the batch evaluation service
// the optimisation algorithms need: evaluate a set of candidate points, each
// sampled K times per the estimator, and return one estimate per point.
type Evaluator struct {
	Sim *Sim
	F   objective.Function
	Est sample.Estimator
	// Sink, when non-nil, receives every raw valid candidate measurement.
	Sink ObservationSink
	// ParallelSampling uses idle processors to take several samples of the
	// same candidate within one time step (the §5.2 observation that 64
	// processors running 6 candidates give K ≈ 10 for free). When false —
	// the paper's Fig. 10 worst case — each extra sample costs one more
	// subsequent time step.
	ParallelSampling bool
	// Fill, when non-nil, is the configuration the processors not assigned
	// a candidate run during each step. Their times gate the barrier
	// (footnote 1: every processor waits for the slowest) but produce no
	// measurements. The on-line driver keeps Fill at the incumbent best.
	Fill space.Point

	lost lossRule

	// Scratch reused across calls, so a step allocates nothing: each
	// candidate's observations, the candidates run this step, per assigned
	// processor its configuration, and per observed processor its
	// candidate index. The last three hold at most P entries.
	obs    obsSlab
	order  []int
	assign []space.Point
	idx    []int
}

// NewEvaluator wires an evaluator; est defaults to Single.
func NewEvaluator(sim *Sim, f objective.Function, est sample.Estimator) *Evaluator {
	if est == nil {
		est = sample.Single{}
	}
	p := sim.P()
	is := make([]int, 2*p)
	return &Evaluator{
		Sim: sim, F: f, Est: est,
		order: is[:0:p], idx: is[p:p], assign: make([]space.Point, 0, p),
	}
}

// Eval evaluates every point, taking the estimator's sample count per point
// (adaptively extended for sample.Adaptive estimators), and returns one
// estimate per point in order. Batches wider than P are split into waves,
// each estimated before the next runs (a sample.Controlled estimator
// retunes K from each estimate). Candidates whose every observation
// was lost to injected faults are scored by the shared lossRule.
func (e *Evaluator) Eval(points []space.Point) ([]float64, error) {
	if len(points) == 0 {
		return nil, errEmptyBatch
	}
	ests := make([]float64, len(points))
	obs := e.obs.carve(len(points), e.obsCap(len(points)))
	for start := 0; start < len(points); start += e.Sim.P() {
		end := min(start+e.Sim.P(), len(points))
		if err := e.evalWave(points[start:end], obs[start:end]); err != nil {
			return nil, err
		}
		e.lost.estimate(e.Est, obs[start:end], ests[start:end])
	}
	return e.lost.settle(obs, ests, e.Sim.rec, e.Sim.TotalTime())
}

// obsCap is the room one candidate of an n-point batch needs when no
// report is lost: the estimator's step budget, times the replicas per step
// under ParallelSampling.
func (e *Evaluator) obsCap(n int) int {
	c := e.maxSteps()
	if e.ParallelSampling {
		// Per step a candidate of a w-wide wave runs on at least lo and at
		// most hi processors.
		p, w := e.Sim.P(), min(n, e.Sim.P())
		lo, hi := p/w, (p+w-1)/w
		c = hi * ((c + lo - 1) / lo)
	}
	return c
}

// obsSlab is both evaluators' per-candidate observation storage, kept
// across batches.
type obsSlab struct {
	obs  [][]float64
	slab []float64
}

// carve returns n empty observation slices, each with its own stretch of c
// floats of the slab. A candidate that gathers more than c grows past its
// stretch, since each is capped, without touching its neighbour's.
func (o *obsSlab) carve(n, c int) [][]float64 {
	if cap(o.obs) < n {
		o.obs = make([][]float64, n)
	}
	if cap(o.slab) < n*c {
		o.slab = make([]float64, n*c)
	}
	obs := o.obs[:n]
	for i := range obs {
		obs[i] = o.slab[i*c : i*c : (i+1)*c]
	}
	return obs
}

// maxSteps is the most samples the estimator takes of one candidate.
func (e *Evaluator) maxSteps() int {
	if a, ok := e.Est.(sample.Adaptive); ok {
		return a.MaxK()
	}
	return e.Est.K()
}

// evalWave gathers observations into obs for a wave of at most P points, one
// barrier step at a time. A step runs every candidate of the wave in index
// order when they all fit on the live processors, and otherwise only the
// candidates still short of samples. Spare processors replicate the
// assigned candidates round-robin (ParallelSampling) or run Fill, whose
// entries follow the candidates' and are barrier-only. Reports failing
// fault.ValidValue are dropped. The wave ends when every candidate
// has enough samples, or at the retry limit; a candidate left with no
// observations is then scored by the lossRule.
func (e *Evaluator) evalWave(wave []space.Point, obs [][]float64) error {
	n := len(wave)
	adaptive, isAdaptive := e.Est.(sample.Adaptive)
	short := func(i int) bool {
		if isAdaptive {
			return !adaptive.Enough(obs[i])
		}
		return len(obs[i]) < e.Est.K()
	}
	maxSteps := e.maxSteps()
	// Lost reports cost extra steps: allow up to 3x the fault-free budget
	// (plus slack for waves wider than the live processor count) before the
	// remaining candidates degrade to worst-known substitution.
	limit := 3 * maxSteps * (1 + (n-1)/max(1, e.Sim.Live()))
	for step := 0; step < limit; step++ {
		live := e.Sim.Live()
		if live == 0 {
			return ErrAllProcessorsCrashed
		}
		order, done := e.order[:0], true
		for i := range wave {
			if short(i) {
				done = false
			} else if n > live {
				continue
			}
			order = append(order, i)
		}
		if done {
			break
		}
		width := min(len(order), live)
		assign, idx := e.assign[:0], e.idx[:0]
		for k := 0; k < live; k++ {
			switch i := order[k%len(order)]; {
			case k < width || e.ParallelSampling:
				assign, idx = append(assign, wave[i]), append(idx, i)
			case e.Fill != nil:
				assign = append(assign, e.Fill)
			}
		}
		e.order, e.assign, e.idx = order, assign, idx
		ys, err := e.Sim.RunStep(e.F, assign, len(idx))
		if err != nil {
			return err
		}
		for k, y := range ys {
			if i := idx[k]; fault.ValidValue(y) {
				obs[i] = append(obs[i], y)
				if e.Sink != nil {
					e.Sink.Observe(wave[i], y)
				}
			}
		}
	}
	return nil
}

var errEmptyBatch = errors.New("cluster: Eval of empty batch")

// lossRule is the lost-measurement rule both evaluators share. It tracks
// the largest estimate produced so far; a candidate whose every observation
// was lost to injected faults is scored at that value, so rank ordering
// proceeds instead of blocking (GSS convergence tolerates a pessimistic
// stand-in).
type lossRule struct {
	worst float64
	have  bool
}

// estimate writes the estimate of every candidate with observations into
// ests and raises the worst-known estimate.
func (r *lossRule) estimate(est sample.Estimator, obs [][]float64, ests []float64) {
	for i, o := range obs {
		if len(o) == 0 {
			continue
		}
		ests[i] = est.Estimate(o)
		if !r.have || ests[i] > r.worst {
			r.worst, r.have = ests[i], true
		}
	}
}

// settle scores every candidate left without observations at the
// worst-known estimate, failing when there is none yet, and records the
// batch at virtual time vtime.
func (r *lossRule) settle(obs [][]float64, ests []float64, rec event.Recorder, vtime float64) ([]float64, error) {
	for i, o := range obs {
		if len(o) > 0 {
			continue
		}
		if !r.have {
			return nil, errors.New("cluster: every measurement in the batch was lost")
		}
		ests[i] = r.worst
	}
	if rec != nil {
		rec.Record(event.BatchEvaluated{Points: len(obs), VTime: vtime})
	}
	return ests, nil
}
