package cluster

import (
	"errors"
	"fmt"
	"math/rand"

	"paratune/internal/dist"
	"paratune/internal/event"
	"paratune/internal/fault"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// AsyncSim is the unsynchronised counterpart of Sim, modelling the systems
// footnote 1 of the paper describes: "Our actual tuning system works for
// applications that do not have this synchronization requirement." Each
// processor advances its own virtual clock; there is no barrier, so one
// processor's noise spike delays only that processor. Work is submitted as
// (configuration, samples) requests; completions surface in virtual-time
// order, exactly as an asynchronous tuning server would observe them.
//
// The cost metric is the makespan — the largest per-processor virtual clock —
// rather than a sum of barrier-gated steps.
type AsyncSim struct {
	model  noise.Model
	rngs   []*rand.Rand
	clocks []float64 // per-processor virtual time
	queue  completionHeap
	nextID uint64
	faults *fault.Injector
	dead   []bool         // processors removed by injected crashes
	rec    event.Recorder // nil records nothing
}

// Completion is one finished measurement.
type Completion struct {
	// ID identifies the request, in submission order.
	ID uint64
	// Proc is the processor that ran it.
	Proc int
	// Point is the configuration measured.
	Point space.Point
	// Value is the observed (noisy) time of one application iteration.
	Value float64
	// Finish is the virtual time at which the measurement completed.
	Finish float64
}

// completionHeap is a min-heap of completions on Finish. push and pop make
// container/heap's exact sift moves without boxing each completion in an
// interface, so completions that tie on Finish pop in container/heap's
// order (TestCompletionHeapMatchesContainerHeap).
type completionHeap []Completion

// push adds c and sifts it up, as heap.Push does.
func (h *completionHeap) push(c Completion) {
	q := append(*h, c)
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !(q[j].Finish < q[i].Finish) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

// pop removes and returns the earliest completion, as heap.Pop does: the
// last element moves to the root and sifts down.
func (h *completionHeap) pop() Completion {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].Finish < q[j].Finish {
			j = j2
		}
		if !(q[j].Finish < q[i].Finish) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	c := q[n]
	q[n] = Completion{} // drop the popped point from the backing array
	*h = q[:n]
	return c
}

// NewAsync creates an asynchronous simulator with p processors.
func NewAsync(p int, model noise.Model, seed int64) (*AsyncSim, error) {
	if p < 1 {
		return nil, fmt.Errorf("cluster: need at least one processor, got %d", p)
	}
	if model == nil {
		model = noise.None{}
	}
	s := &AsyncSim{model: model, rngs: make([]*rand.Rand, p), clocks: make([]float64, p), dead: make([]bool, p)}
	root := dist.NewRNG(seed)
	for i := range s.rngs {
		s.rngs[i] = dist.NewRNG(root.Int63())
	}
	return s, nil
}

// P returns the processor count.
func (s *AsyncSim) P() int { return len(s.clocks) }

// SetFaults attaches a fault injector; nil detaches it. Faults are drawn per
// scheduled sample inside Submit.
func (s *AsyncSim) SetFaults(in *fault.Injector) { s.faults = in }

// Faults returns the attached injector (nil when fault-free).
func (s *AsyncSim) Faults() *fault.Injector { return s.faults }

// SetRecorder attaches an event recorder; each evaluator batch emits one
// BatchEvaluated event stamped with the makespan. nil detaches it.
func (s *AsyncSim) SetRecorder(r event.Recorder) { s.rec = r }

// Live returns the number of processors that have not crashed.
func (s *AsyncSim) Live() int {
	n := 0
	for _, d := range s.dead {
		if !d {
			n++
		}
	}
	return n
}

// Makespan returns the largest per-processor virtual clock: the wall-clock
// time the tuning activity has consumed so far.
func (s *AsyncSim) Makespan() float64 {
	m := 0.0
	for _, c := range s.clocks {
		if c > m {
			m = c
		}
	}
	return m
}

// Clock returns processor p's virtual time.
func (s *AsyncSim) Clock(p int) float64 { return s.clocks[p] }

// idleProc returns the live processor with the smallest clock, or -1 when
// every processor has crashed.
func (s *AsyncSim) idleProc() int {
	best := -1
	for i, c := range s.clocks {
		if s.dead[i] {
			continue
		}
		if best < 0 || c < s.clocks[best] {
			best = i
		}
	}
	return best
}

// Submit schedules samples measurements of x on the least-loaded live
// processor and returns the request ID. Each sample is one application
// iteration; the processor runs them back to back.
//
// With a fault injector attached, a sample may crash its processor (the
// remaining samples migrate to the next least-loaded live processor — the
// crashed processor's clock freezes, so makespan accounting stays correct),
// stretch by a straggler factor, lose its completion (the clock advances but
// no Completion is queued), or complete with a corrupted value.
func (s *AsyncSim) Submit(f objective.Function, x space.Point, samples int) (uint64, error) {
	if samples < 1 {
		return 0, errNeedSamples(samples)
	}
	if f == nil {
		return 0, errNilFunction
	}
	id := s.nextID
	s.nextID++
	proc := s.idleProc()
	if proc < 0 {
		return 0, ErrAllProcessorsCrashed
	}
	base := f.Eval(x)
	// One clone shared by every completion of this request: completions
	// treat their Point as read-only, so per-sample clones are pure waste.
	xc := x.Clone()
	for k := 0; k < samples; {
		out := s.faults.Next(proc, id)
		if out.Kind == fault.Crash {
			s.dead[proc] = true
			if proc = s.idleProc(); proc < 0 {
				return id, ErrAllProcessorsCrashed
			}
			continue // retry this sample on the surviving processor
		}
		y := s.model.Perturb(base, s.rngs[proc])
		if out.Kind == fault.Straggler {
			y *= out.Factor
		}
		s.clocks[proc] += y
		val := y
		if out.Kind == fault.Corrupt {
			val = out.Value
		}
		if out.Kind != fault.Drop {
			s.queue.push(Completion{
				ID: id, Proc: proc, Point: xc, Value: val, Finish: s.clocks[proc],
			})
		}
		k++
	}
	return id, nil
}

// errNeedSamples and errNilFunction live outside the hot path so Submit
// itself carries no fmt dependency.
func errNeedSamples(n int) error {
	return fmt.Errorf("cluster: need at least one sample, got %d", n)
}

var errNilFunction = errors.New("cluster: nil function")

// Next pops the earliest pending completion, in virtual-time order. The
// boolean is false when nothing is pending.
func (s *AsyncSim) Next() (Completion, bool) {
	if len(s.queue) == 0 {
		return Completion{}, false
	}
	return s.queue.pop(), true
}

// Pending returns the number of undelivered completions.
func (s *AsyncSim) Pending() int { return len(s.queue) }

// AsyncEvaluator adapts AsyncSim to the core.Evaluator contract: a batch of
// points is submitted with K samples each, completions are drained, and the
// estimator reduces each point's observations. Unlike the barrier evaluator,
// a slow sample delays only its own processor, so heterogeneous candidate
// costs do not gate each other.
type AsyncEvaluator struct {
	Sim *AsyncSim
	F   objective.Function
	Est sample.Estimator
	// Sink, when non-nil, receives every raw valid candidate measurement.
	Sink ObservationSink

	lost lossRule

	// Scratch reused across batches: the batch index of each request ID,
	// and each point's observations.
	ids map[uint64]int
	obs obsSlab
}

// Eval implements core.Evaluator. Corrupt completions (non-finite or
// negative values) are discarded; samples lost to drops or crashes are
// reissued up to two rounds, after which a candidate with zero surviving
// observations is scored by the shared lossRule.
func (e *AsyncEvaluator) Eval(points []space.Point) ([]float64, error) {
	if len(points) == 0 {
		return nil, errEmptyBatch
	}
	k := e.Est.K()
	if e.ids == nil {
		e.ids = make(map[uint64]int, len(points))
	}
	clear(e.ids)
	ids := e.ids
	submit := func(i, n int) error {
		id, err := e.Sim.Submit(e.F, points[i], n)
		if err != nil {
			return err
		}
		ids[id] = i
		return nil
	}
	for i := range points {
		if err := submit(i, k); err != nil {
			return nil, err
		}
	}
	obs := e.obs.carve(len(points), k) // a point keeps at most k
	done := func() bool {
		for i := range obs {
			if len(obs[i]) < k {
				return false
			}
		}
		return true
	}
	reissues := 0
	for !done() {
		c, ok := e.Sim.Next()
		if !ok {
			// Completions exhausted with the batch incomplete: reports were
			// lost. Reissue the missing samples a bounded number of times.
			if reissues >= 2 {
				break
			}
			reissues++
			for i := range obs {
				if miss := k - len(obs[i]); miss > 0 {
					if err := submit(i, miss); err != nil {
						return nil, err
					}
				}
			}
			continue
		}
		if i, mine := ids[c.ID]; mine && fault.ValidValue(c.Value) && len(obs[i]) < k {
			obs[i] = append(obs[i], c.Value)
			if e.Sink != nil {
				e.Sink.Observe(c.Point, c.Value)
			}
		}
	}
	ests := make([]float64, len(points))
	e.lost.estimate(e.Est, obs, ests)
	return e.lost.settle(obs, ests, e.Sim.rec, e.Sim.Makespan())
}
