// Package fault is a seeded, composable fault-injection layer for the
// cluster simulators and the harmony measurement pipeline. The paper's §4
// premise is that real clusters misbehave; the noise models perturb *values*,
// while this package injects failures of the measurement pipeline itself:
//
//   - Crash: a processor or client disappears permanently; its pending work
//     must be redistributed.
//   - Straggler: a measurement is delayed by a Pareto-tailed factor (the
//     heavy-tail stall of Fig. 3's big spikes, but hitting delivery rather
//     than the measured value).
//   - Drop: the measurement completes but its report never arrives.
//   - Corrupt: the report arrives carrying garbage (NaN, ±Inf, a negative
//     time, or a wildly out-of-range value).
//
// An Injector draws one Outcome per measurement attempt from its own seeded
// stream, so fault schedules are reproducible, and records every injected
// event in a Plan for test assertions. A nil *Injector is valid and injects
// nothing, so call sites need no guards.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"paratune/internal/dist"
	"paratune/internal/event"
)

// Kind identifies one class of injected fault.
type Kind int

const (
	// None means the measurement proceeds unharmed.
	None Kind = iota
	// Crash removes the executing processor/client permanently.
	Crash
	// Straggler delays the measurement by Outcome.Factor.
	Straggler
	// Drop loses the report; time is spent but no value arrives.
	Drop
	// Corrupt replaces the reported value with Outcome.Value (garbage).
	Corrupt
	// WALCorrupt is an observed (not injected) fault: a measurement-database
	// write-ahead log ended in a torn or corrupted record — typically a crash
	// mid-append — and recovery truncated the log at the last good record.
	WALCorrupt
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Straggler:
		return "straggler"
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case WALCorrupt:
		return "wal_corrupt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one injected fault, recorded in the Plan.
type Event struct {
	Kind Kind
	// Proc is the processor (or client id) the fault hit; -1 when unknown.
	Proc int
	// Tag is the measurement tag, when the call site has one.
	Tag uint64
	// Factor is the straggler delay multiplier (Straggler only).
	Factor float64
	// Value is the injected garbage value (Corrupt only).
	Value float64
}

// Plan records the faults an Injector has issued. Safe for concurrent use.
type Plan struct {
	mu     sync.Mutex //paralint:lockrank 62
	events []Event
}

// Record appends one event.
func (p *Plan) Record(e Event) {
	p.mu.Lock()
	p.events = append(p.events, e)
	p.mu.Unlock()
}

// Events returns a copy of every recorded event.
func (p *Plan) Events() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.events...)
}

// Count returns how many events of kind k were injected.
func (p *Plan) Count(k Kind) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Len returns the total number of injected events.
func (p *Plan) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.events)
}

// The straggler delay factor is Pareto-tailed: at least stragglerMin, with
// tail index stragglerAlpha (heavy tail, finite mean).
const (
	stragglerAlpha = 1.5
	stragglerMin   = 2
)

// Config sets per-kind injection probabilities. Probabilities are evaluated
// in order Crash, Straggler, Drop, Corrupt on a single uniform draw, so their
// sum must not exceed 1.
type Config struct {
	Seed int64
	// PCrash is the per-attempt probability the executor dies permanently.
	PCrash float64
	// MaxCrashes bounds total injected crashes; 0 means unlimited.
	MaxCrashes int
	// PStraggler is the per-attempt probability of a Pareto-tail delay.
	PStraggler float64
	// PDrop is the per-attempt probability the report is lost.
	PDrop float64
	// PCorrupt is the per-attempt probability the report carries garbage.
	PCorrupt float64
}

// Outcome is the fault decision for one measurement attempt.
type Outcome struct {
	Kind Kind
	// Factor is the delay multiplier (>= 1) for Straggler outcomes.
	Factor float64
	// Value is the replacement report value for Corrupt outcomes.
	Value float64
}

// Injector draws fault outcomes from a private seeded stream. Safe for
// concurrent use; a nil *Injector injects nothing.
type Injector struct {
	cfg  Config // immutable after New
	plan Plan   // self-locking; safe to hand out by pointer

	mu      sync.Mutex //paralint:lockrank 60
	rng     *rand.Rand
	crashes int
	corrupt int            // rotates through the corrupt-value menu
	rec     event.Recorder // nil records nothing
}

// New validates cfg and returns an Injector.
func New(cfg Config) (*Injector, error) {
	for _, p := range []float64{cfg.PCrash, cfg.PStraggler, cfg.PDrop, cfg.PCorrupt} {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("fault: probability %g out of [0, 1]", p)
		}
	}
	if sum := cfg.PCrash + cfg.PStraggler + cfg.PDrop + cfg.PCorrupt; sum > 1 {
		return nil, fmt.Errorf("fault: probabilities sum to %g > 1", sum)
	}
	return &Injector{cfg: cfg, rng: dist.NewRNG(cfg.Seed)}, nil
}

// Plan returns the injector's event record.
func (in *Injector) Plan() *Plan {
	if in == nil {
		return &Plan{}
	}
	return &in.plan
}

// SetRecorder attaches an event recorder that mirrors every injected fault as
// a FaultInjected event. Safe on a nil *Injector; nil detaches.
func (in *Injector) SetRecorder(r event.Recorder) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.rec = r
	in.mu.Unlock()
}

// recordLocked appends e to the Plan and, when a recorder is attached,
// returns the mirror event for the caller to emit once in.mu is released.
// Recorders may block or re-enter the injector, so the emission itself must
// never happen under the lock. Corrupt values are string-formatted so
// NaN/±Inf survive JSON.
func (in *Injector) recordLocked(e Event) (event.Recorder, event.Event) {
	in.plan.Record(e)
	if in.rec == nil {
		return nil, nil
	}
	fe := event.FaultInjected{
		Fault: e.Kind.String(), Proc: e.Proc, Tag: e.Tag, Factor: e.Factor,
	}
	if e.Kind == Corrupt {
		fe.Value = event.FormatValue(e.Value)
	}
	return in.rec, fe
}

// corruptValueLocked rotates through the menu of garbage reports; caller
// holds in.mu.
func (in *Injector) corruptValueLocked() float64 {
	menu := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 1e300}
	v := menu[in.corrupt%len(menu)]
	in.corrupt++
	return v
}

// Next draws the fault outcome for one measurement attempt by proc for the
// tagged candidate (tag 0 when the call site has no tag). Injected events are
// recorded in the Plan.
func (in *Injector) Next(proc int, tag uint64) Outcome {
	if in == nil {
		return Outcome{Kind: None}
	}
	out, rec, mirror := in.next(proc, tag)
	if rec != nil {
		// Mirror into the recorder only after in.mu is released.
		rec.Record(mirror)
	}
	return out
}

// next draws the outcome under in.mu and hands back any mirror event for
// Next to emit after unlocking.
func (in *Injector) next(proc int, tag uint64) (Outcome, event.Recorder, event.Event) {
	in.mu.Lock()
	defer in.mu.Unlock()
	u := in.rng.Float64()
	c := in.cfg
	switch {
	case u < c.PCrash:
		if c.MaxCrashes > 0 && in.crashes >= c.MaxCrashes {
			// Crash budget exhausted: the attempt proceeds unharmed rather
			// than falling through into another fault band.
			return Outcome{Kind: None}, nil, nil
		}
		in.crashes++
		rec, ev := in.recordLocked(Event{Kind: Crash, Proc: proc, Tag: tag})
		return Outcome{Kind: Crash}, rec, ev
	case u < c.PCrash+c.PStraggler:
		// Pareto-tailed delay multiplier: min · U^(-1/α).
		f := stragglerMin * math.Pow(1-in.rng.Float64(), -1/stragglerAlpha)
		rec, ev := in.recordLocked(Event{Kind: Straggler, Proc: proc, Tag: tag, Factor: f})
		return Outcome{Kind: Straggler, Factor: f}, rec, ev
	case u < c.PCrash+c.PStraggler+c.PDrop:
		rec, ev := in.recordLocked(Event{Kind: Drop, Proc: proc, Tag: tag})
		return Outcome{Kind: Drop}, rec, ev
	case u < c.PCrash+c.PStraggler+c.PDrop+c.PCorrupt:
		v := in.corruptValueLocked()
		rec, ev := in.recordLocked(Event{Kind: Corrupt, Proc: proc, Tag: tag, Value: v})
		return Outcome{Kind: Corrupt, Value: v}, rec, ev
	default:
		return Outcome{Kind: None}, nil, nil
	}
}

// ValidValue reports whether a measured time is acceptable to feed an
// estimator: finite and non-negative. Shared by every layer that guards the
// pipeline against Corrupt reports.
func ValidValue(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}
