package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"paratune/internal/event"
	"paratune/internal/experiment"
)

// figuresPass is one serial run of every registered figure at Quick scale.
type figuresPass struct {
	ids     []string
	dur     []time.Duration // per figure, registry order
	digest  []uint64        // per figure CSV digest; 0 for a figure that failed
	figs    []*experiment.Figure
	fig10   *experiment.Figure
	failed  int
	wall    time.Duration
	allocMB float64
}

// runFigures runs the registry serially in order, as cmd/expgen does. rec,
// when non-nil, is handed to every figure as its event recorder; tr, when
// non-nil, receives one span per figure.
func runFigures(seed int64, rec event.Recorder, tr *Tracer) figuresPass {
	var p figuresPass
	cfg := experiment.Config{Seed: seed, Quick: true, Trace: rec}
	span := func(int32) {}
	if fr, ok := rec.(*figureRecorder); ok {
		span = func(i int32) { fr.figure = i }
	}
	before := allocatedBytes()
	start := time.Now()
	for _, e := range experiment.Registry() {
		sp := tr.Begin("figures."+e.ID, noParent, int64(len(p.ids)))
		span(sp)
		t0 := time.Now()
		f, err := experiment.Run(e.ID, cfg)
		d := time.Since(t0)
		tr.End(sp)
		p.ids = append(p.ids, e.ID)
		p.dur = append(p.dur, d)
		if err != nil {
			fmt.Fprintf(stderr, "figures: %s: %v\n", e.ID, err)
			p.failed++
			p.digest = append(p.digest, 0)
			continue
		}
		p.digest = append(p.digest, figureDigest(f))
		p.figs = append(p.figs, f)
		if e.ID == "fig10" {
			p.fig10 = f
		}
	}
	p.wall = time.Since(start)
	p.allocMB = float64(allocatedBytes()-before) / (1 << 20)
	return p
}

// figureDigest hashes a figure's CSV header and the exact bits of every row
// value, so any numeric drift changes it.
func figureDigest(f *experiment.Figure) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range f.CSVHeader {
		h.Write([]byte(c))
		h.Write([]byte{0})
	}
	for _, row := range f.CSVRows {
		for _, v := range row {
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
		h.Write([]byte{1})
	}
	return h.Sum64()
}

// sameDigests reports whether two passes produced identical figures, and
// names the first figure that differs.
func sameDigests(a, b figuresPass) (bool, string) {
	if len(a.digest) != len(b.digest) {
		return false, "figure count"
	}
	for i := range a.digest {
		if a.digest[i] != b.digest[i] || a.digest[i] == 0 {
			return false, a.ids[i]
		}
	}
	return true, ""
}

// eventCounter tallies the work a figures pass does: tuning runs, optimiser
// iterations, and simulated time steps. It keeps no timestamps.
type eventCounter struct {
	runs, iterations, steps int
}

func (c *eventCounter) Record(e event.Event) {
	switch e.(type) {
	case event.RunStart:
		c.runs++
	case event.Iteration:
		c.iterations++
	case event.StepTime:
		c.steps++
	}
}

// figureRecorder is the traced figures recorder: it counts like
// eventCounter and stamps wall time on every run_start/run_end pair, one
// span per tuning run, parented to the figure being computed.
type figureRecorder struct {
	eventCounter
	tr     *Tracer
	figure int32   // span of the figure in progress
	open   []int32 // open run spans; runs may nest
}

func (r *figureRecorder) Record(e event.Event) {
	r.eventCounter.Record(e)
	switch e.(type) {
	case event.RunStart:
		parent := r.figure
		if n := len(r.open); n > 0 {
			parent = r.open[n-1]
		}
		r.open = append(r.open, r.tr.Begin("figures.run", parent, int64(r.runs)))
	case event.RunEnd:
		if n := len(r.open); n > 0 {
			r.tr.End(r.open[n-1])
			r.open = r.open[:n-1]
		}
	}
}

// figuresE2E runs the figures workload with tracing off: one counting pass
// as set-up (it fixes the work counts and the reference digests), then
// measured passes until the time budget is spent.
func figuresE2E(budget time.Duration, res *runResult) {
	var count eventCounter
	ref := runFigures(fixedSeed, &count, nil)
	res.attempted += len(ref.ids)
	res.failed += ref.failed
	res.check(ref.failed == 0, "figures: %d figures failed during set-up", ref.failed)
	res.check(count.runs > 0 && count.steps > 0, "figures: set-up pass counted no tuning runs")
	fmt.Fprintf(stderr, "figures: set-up pass %v: %d tuning runs, %d iterations, %d sim steps\n",
		ref.wall.Round(time.Millisecond), count.runs, count.iterations, count.steps)

	var wall, sessions, reports, alloc, heap, perFigure []float64
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < budget; pass++ {
		p := runFigures(fixedSeed, nil, nil)
		res.attempted += len(p.ids)
		res.failed += p.failed
		same, which := sameDigests(ref, p)
		res.check(same, "figures: pass %d: %s differs from the set-up pass", pass, which)
		s := p.wall.Seconds()
		wall = append(wall, s)
		sessions = append(sessions, float64(count.runs)/s)
		reports = append(reports, float64(count.steps)/s)
		alloc = append(alloc, p.allocMB)
		// Like expgen, which holds every figure for its report, the pass
		// keeps its figures until the heap is measured.
		heap = append(heap, liveHeapMB())
		runtime.KeepAlive(p.figs)
		for _, d := range p.dur {
			perFigure = append(perFigure, float64(d)/1e3)
		}
	}
	rtt := tailOf(perFigure, 0.99)
	conv := tailOf(perFigure, 0.90)
	res.metric("setup_s", ref.wall.Seconds(), "s")
	res.summary("wall_s", wall, "s")
	res.summary("sessions_per_s", sessions, "1/s")
	res.summary("reports_per_s", reports, "1/s")
	res.tail("rtt_p50_us", "rtt_p99_us", rtt, 1, "us")
	res.tail("converge_p50_ms", "converge_p90_ms", conv, 1e-3, "ms")
	res.summary("alloc_mb", alloc, "MB")
	res.summary("heap_live_mb", heap, "MB")
}

// overheadPairs is how many untraced and traced figures passes the traced
// run alternates. A figures pass varies by about a tenth between passes,
// more than tracing costs it, so the overhead is a difference of medians.
const overheadPairs = 3

// figuresTraced measures the figures layers: untraced passes alternating
// with passes that carry the wall-stamping recorder and a span per figure
// (the last one's spans give the layer metrics), and the traced replay of
// fig10's sweep through the engine.
func figuresTraced(res *runResult) {
	var plainWall, tracedWall []float64
	var traced figuresPass
	var run, failed int
	var tr *Tracer
	var rec *figureRecorder
	for i := 0; i < overheadPairs; i++ {
		plain := runFigures(fixedSeed, nil, nil)
		tr = newTracer()
		rec = &figureRecorder{tr: tr}
		traced = runFigures(fixedSeed, rec, tr)
		for _, p := range []figuresPass{plain, traced} {
			run += len(p.ids)
			failed += p.failed
		}
		same, which := sameDigests(plain, traced)
		res.check(same, "figures: traced pass changed %s", which)
		plainWall = append(plainWall, plain.wall.Seconds())
		tracedWall = append(tracedWall, traced.wall.Seconds())
	}

	lt := collectLayers(tr.Spans())
	var harnessSelf float64
	for i, id := range traced.ids {
		name := "figures." + id
		res.metric(name+"_ms", float64(traced.dur[i])/1e6, "ms")
		harnessSelf += sum(lt.self[name])
	}
	res.metric("figures.tuning_runs", float64(rec.runs), "count")
	res.metric("figures.iterations", float64(rec.iterations), "count")
	res.metric("figures.sim_steps", float64(rec.steps), "count")
	res.metric("figures.run_p50_ms", median(lt.dur["figures.run"])/1e3, "ms")
	res.metric("figures.harness_self_ms", harnessSelf/1e3, "ms")
	res.metric("figures.trace_overhead_s", median(tracedWall)-median(plainWall), "s")
	res.metric("figures.fail_ratio", float64(failed)/float64(run), "ratio")
	res.attempted += run
	res.failed += failed
	res.spans("figures", tr)

	if traced.fig10 == nil {
		res.check(false, "figures: fig10 missing, engine replay skipped")
		return
	}
	engineReplay(fixedSeed, traced.fig10, res)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
