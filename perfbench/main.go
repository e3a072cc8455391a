// Command perfbench is the repository benchmark. One invocation runs one
// workload for a time budget and prints, as the last line of standard
// output, a JSON object with the workload's metrics and whether every
// correctness check passed.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload figures|serve-cold|serve-warm \
//	    --seed 1 --seconds 20 --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of the named workload,
// measured with tracing off. With --trace 1 it runs the traced per-layer
// run, which covers all three workloads whatever --workload names, so every
// per-layer metric is measured on the workload that exercises its layer.
// README.md defines every metric and the layer each one belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// fixedSeed is the seed of the inputs whose cost is a heavy-tailed function
// of the seed: the experiment seed of every figure (make results' default),
// the GS2 surface the serve clients measure, and the noise streams that fill
// serve-warm's store. A per-seed sample of those would measure which seed
// was drawn, not the code (one figure alone takes 0.37 s to 6 s over seeds
// 1..28, and serve-warm's trajectory, hence its work, doubles between fill
// seeds). --seed drives serve-cold's per-session measurement noise.
const fixedSeed = 42

// minPasses is the fewest measured passes a run makes, however short its
// time budget.
const minPasses = 3

// Measured-phase sizes. Traced passes are smaller because every span stays
// in memory until the run ends.
const (
	coldSessions      = 1024
	warmSessions      = 8192
	coldTraceSessions = 512
	warmTraceSessions = 2048
)

// stageTolerance bounds how far the request-path stage times may sum away
// from the client round-trip time before the traced run fails.
const stageTolerance = 0.10

var stderr io.Writer = os.Stderr

func main() {
	var (
		workload = flag.String("workload", "", "figures, serve-cold or serve-warm")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measurement budget in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run")
		work     = flag.String("work", filepath.Join(".bench_build", "work"), "directory for stores and span files")
	)
	flag.Parse()
	switch *workload {
	case "figures", "serve-cold", "serve-warm":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	res := &runResult{correct: true, metrics: make(map[string]metric), work: *work}
	budget := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		tracedRun(*seed, res)
	} else {
		switch *workload {
		case "figures":
			figuresE2E(budget, res)
		case "serve-cold":
			serveE2E(*seed, false, budget, res)
		case "serve-warm":
			serveE2E(*seed, true, budget, res)
		}
	}
	if res.attempted == 0 {
		res.check(false, "no operation was attempted")
	}
	out, err := json.Marshal(res.output())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.correct {
		os.Exit(1)
	}
}

// tracedRun is the per-layer run: every workload once untraced and once
// traced, then the engine replay.
func tracedRun(seed int64, res *runResult) {
	figuresTraced(res)
	serveTraced(seed, false, res)
	serveTraced(seed, true, res)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult accumulates one invocation's metrics, counts and checks.
type runResult struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	work      string
}

func (r *runResult) output() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
}

// check records a correctness check; a failed one fails the run.
func (r *runResult) check(ok bool, format string, args ...any) {
	if !ok {
		r.correct = false
		fmt.Fprintf(stderr, "CHECK FAILED: "+format+"\n", args...)
	}
}

func (r *runResult) metric(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(false, "metric %s has no value", name)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// summary reports the median of repeated samples and logs their spread.
func (r *runResult) summary(name string, xs []float64, unit string) {
	s := summarise(xs)
	fmt.Fprintf(stderr, "%-16s median %.6g %s  q1 %.6g  q3 %.6g  iqr %.1f%%  (%d passes)\n",
		name, s.Median, unit, s.Q1, s.Q3, s.IQRPercent, s.N)
	r.metric(name, s.Median, unit)
}

// tail reports a latency distribution's median and tail, scaled from µs,
// and states the sample count and the quantile actually used.
func (r *runResult) tail(p50Name, tailName string, t tail, scale float64, unit string) {
	fmt.Fprintf(stderr, "%-16s p50 %.6g %s, p%.4g %.6g %s (wanted p%.4g; %d samples, %d beyond)\n",
		tailName, t.P50*scale, unit, 100*t.Q, t.Tail*scale, unit, 100*t.Want, t.N, t.Beyond)
	r.metric(p50Name, t.P50*scale, unit)
	r.metric(tailName, t.Tail*scale, unit)
}

// spans writes a tracer's spans to the work directory.
func (r *runResult) spans(name string, tr *Tracer) {
	path := filepath.Join(r.work, "spans-"+name+".tsv")
	if err := tr.WriteTSV(path); err != nil {
		r.check(false, "write spans: %v", err)
		return
	}
	fmt.Fprintf(stderr, "spans: %d written to %s\n", len(tr.Spans()), path)
}

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
