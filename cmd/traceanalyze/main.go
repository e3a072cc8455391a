// Command traceanalyze applies the paper's §4.3 variability diagnostics to a
// measured trace: summary statistics, a pdf histogram, the log-log survival
// tail with Eq. 8 heavy-tail classification (tail fit + Hill estimator), the
// same analysis after truncating the big spikes, autocorrelation, and the §5
// running-min vs running-mean estimator comparison.
//
// Input is a text file (or stdin with -in -) with one sample per line, a CSV
// with -col selecting the column (0-based; the first row is skipped when it
// does not parse), or a JSONL event trace as written by paratune/harmonyd
// -trace. JSONL input is detected automatically (lines starting with '{');
// the per-step barrier times of its "step_time" events become the sample
// stream. An event trace with fewer than 10 of them (a harmonyd trace has
// none) prints its summaries alone and exits 0.
//
// Usage:
//
//	traceanalyze -in trace.csv -col 1 -threshold 5
//	paratune -seed 7 -rho 0.3 -budget 500 -trace - | traceanalyze
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"paratune/internal/event"
	"paratune/internal/stats"
)

func main() {
	var (
		in        = flag.String("in", "-", "input file, or - for stdin")
		col       = flag.Int("col", 0, "CSV column to analyse (0-based)")
		threshold = flag.Float64("threshold", 5, "truncation threshold for the small-spike analysis")
		bins      = flag.Int("bins", 30, "histogram bins")
		tailFrac  = flag.Float64("tail", 0.2, "fraction of the sample used for the tail fit")
	)
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	tr, err := readColumn(r, *col)
	if err != nil {
		fatal(err)
	}
	if line, ok := hitRateLine(tr.db); ok {
		fmt.Println(line)
	}
	tr.chaos.report(os.Stdout)
	tr.wires.report(os.Stdout)
	if len(tr.data) < 10 {
		if tr.jsonl {
			// An event trace need not carry step samples (a harmonyd, chaos
			// or recovery trace has none); the summaries above are the
			// analysis.
			fmt.Printf("(%d step samples — too few for variability diagnostics)\n", len(tr.data))
			return
		}
		fatal(fmt.Errorf("need at least 10 samples, got %d", len(tr.data)))
	}

	if err := report(os.Stdout, tr.data, *threshold, *bins, *tailFrac); err != nil {
		fatal(err)
	}
}

// dbCounts tallies measurement-database traffic seen in a JSONL trace.
type dbCounts struct {
	hits, misses int
}

// hitRateLine renders the measurement-database summary; ok is false when the
// trace carried no db_hit/db_miss events (non-DB runs stay unchanged).
func hitRateLine(c dbCounts) (string, bool) {
	total := c.hits + c.misses
	if total == 0 {
		return "", false
	}
	return fmt.Sprintf("measurement db: %d hits / %d lookups (%.1f%% hit rate)",
		c.hits, total, 100*float64(c.hits)/float64(total)), true
}

// chaosCounts aggregates chaos-layer and recovery events from a JSONL trace:
// planned vs applied wire faults (the applied counts are the ground truth of
// dropped and duplicated frames), scheduled vs executed server kills, and
// checkpoint restores.
type chaosCounts struct {
	planned      map[string]int // action → planned frame faults
	applied      map[string]int // action → executed frame faults
	killsPlanned int
	killsApplied int
	restored     int // sessions restored from checkpoint
}

func (c *chaosCounts) observe(env *event.Envelope) bool {
	switch env.Kind {
	case event.KindChaosPlan, event.KindChaosApplied:
		var cp event.ChaosPlan // ChaosApplied is a field subset; both decode
		if err := json.Unmarshal(env.Event, &cp); err != nil {
			return true
		}
		if env.Kind == event.KindChaosPlan {
			if c.planned == nil {
				c.planned = make(map[string]int)
			}
			c.planned[cp.Action]++
		} else {
			if c.applied == nil {
				c.applied = make(map[string]int)
			}
			c.applied[cp.Action]++
		}
	case event.KindChaosKill:
		var ck event.ChaosKill
		if err := json.Unmarshal(env.Event, &ck); err != nil {
			return true
		}
		if ck.Applied {
			c.killsApplied++
		} else {
			c.killsPlanned++
		}
	case event.KindSession:
		var se event.Session
		if err := json.Unmarshal(env.Event, &se); err != nil {
			return true
		}
		if se.Phase == "restored" {
			c.restored++
		}
		return false // session events also belong to the regular stream
	default:
		return false
	}
	return true
}

// report prints the chaos/recovery summary; nothing when the trace carried
// no chaos or restore events (non-chaos traces stay unchanged).
func (c *chaosCounts) report(w io.Writer) {
	if len(c.planned) > 0 || len(c.applied) > 0 || c.killsPlanned > 0 || c.killsApplied > 0 {
		fmt.Fprintf(w, "chaos: %s planned, %s applied, kills %d planned / %d executed\n",
			actionList(c.planned), actionList(c.applied), c.killsPlanned, c.killsApplied)
	}
	if c.restored > 0 {
		fmt.Fprintf(w, "recovery: %d session restore(s) from checkpoint\n", c.restored)
	}
}

// wireCounts aggregates the fleet-facing server's batching events from a
// JSONL trace.
type wireCounts struct {
	fetchFrames  int
	fetchGranted int
	reportFrames int
	reportItems  int
	accepted     int
	rejected     int
	refused      int // items past the per-frame cap
}

func (c *wireCounts) observe(env *event.Envelope) bool {
	switch env.Kind {
	case event.KindBatchFetch:
		var bf event.BatchFetch
		if err := json.Unmarshal(env.Event, &bf); err != nil {
			return true
		}
		c.fetchFrames++
		c.fetchGranted += bf.Granted
	case event.KindBatchReport:
		var br event.BatchReport
		if err := json.Unmarshal(env.Event, &br); err != nil {
			return true
		}
		c.reportFrames++
		c.reportItems += br.Items
		c.accepted += br.Accepted
		c.rejected += br.Rejected
		c.refused += br.Refused
	default:
		return false
	}
	return true
}

// report prints the batching summary; nothing when the trace carried no
// batching events (plain traces stay unchanged).
func (c *wireCounts) report(w io.Writer) {
	if c.fetchFrames == 0 && c.reportFrames == 0 {
		return
	}
	fmt.Fprintf(w, "batching: %d fetchn frame(s) granting %d candidate(s), %d reportn frame(s) carrying %d measurement(s) (%d accepted, %d rejected, %d refused)\n",
		c.fetchFrames, c.fetchGranted, c.reportFrames, c.reportItems,
		c.accepted, c.rejected, c.refused)
}

// actionList renders an action→count map as "3 delay + 2 drop", in a stable
// order; "none" for empty maps.
func actionList(m map[string]int) string {
	if len(m) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d %s", m[k], k))
	}
	return strings.Join(parts, " + ")
}

// trace is what readColumn gathers from its input.
type trace struct {
	data  []float64 // the samples
	jsonl bool      // the input was a JSONL event trace
	db    dbCounts
	chaos chaosCounts
	wires wireCounts
}

// readColumn parses one float column from line- or comma-separated input,
// skipping unparsable lines (headers). Input whose first non-empty line
// starts with '{' is treated as a JSONL event trace instead: each line is an
// event.Envelope, the T_k of every "step_time" event becomes a sample,
// db_hit/db_miss events are tallied for the hit-rate summary, chaos and
// recovery events (chaos_plan/chaos_applied/chaos_kill plus checkpoint
// restores) feed the chaos summary, and batching events
// (batch_fetch/batch_report) feed the wire summary.
func readColumn(r io.Reader, col int) (trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var tr trace
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			tr.jsonl = strings.HasPrefix(line, "{")
		}
		if tr.jsonl {
			var env event.Envelope
			if err := json.Unmarshal([]byte(line), &env); err != nil {
				continue
			}
			if tr.chaos.observe(&env) {
				continue
			}
			if tr.wires.observe(&env) {
				continue
			}
			switch env.Kind {
			case event.KindDBHit:
				tr.db.hits++
			case event.KindDBMiss:
				tr.db.misses++
			case event.KindStepTime:
				var st event.StepTime
				if err := json.Unmarshal(env.Event, &st); err == nil {
					tr.data = append(tr.data, st.T)
				}
			}
			continue
		}
		fields := strings.Split(line, ",")
		if col >= len(fields) {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(fields[col]), 64)
		if err != nil {
			continue // header or junk line
		}
		tr.data = append(tr.data, v)
	}
	return tr, sc.Err()
}

// report writes the full diagnostic battery.
func report(w io.Writer, data []float64, threshold float64, bins int, tailFrac float64) error {
	sum := stats.Summarize(data)
	fmt.Fprintf(w, "samples:  n=%d mean=%.4f std=%.4f min=%.4f max=%.4f\n",
		sum.N, sum.Mean, sum.Std, sum.Min, sum.Max)
	fmt.Fprintf(w, "quantiles: p50=%.4f p90=%.4f p99=%.4f\n",
		stats.Percentile(data, 0.5), stats.Percentile(data, 0.9), stats.Percentile(data, 0.99))

	h, err := stats.AutoHistogram(data, bins)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\npdf (fraction per bin):")
	for i := range h.Counts {
		bar := strings.Repeat("#", int(h.Fraction(i)*200))
		fmt.Fprintf(w, "  %10.3f |%s %.4f\n", h.BinCenter(i), bar, h.Fraction(i))
	}

	analyse := func(name string, xs []float64) {
		fit, err := stats.LogLogTailFit(xs, tailFrac)
		if err != nil {
			fmt.Fprintf(w, "%s: tail fit failed: %v\n", name, err)
			return
		}
		hill := 0.0
		if k := len(xs) / 20; k >= 1 && k < len(xs) {
			if hv, err := stats.HillEstimator(xs, k); err == nil {
				hill = hv
			}
		}
		fmt.Fprintf(w, "%s: tail-fit alpha=%.3f (R2=%.3f), Hill alpha=%.3f, heavy-tailed (Eq. 8): %v\n",
			name, fit.Alpha, fit.R2, hill, fit.HeavyTailed())
	}
	fmt.Fprintln(w)
	analyse("full data      ", data)
	trunc := stats.Truncate(data, threshold)
	fmt.Fprintf(w, "truncation at %.3g removed %d samples\n", threshold, len(data)-len(trunc))
	if len(trunc) > 10 {
		analyse("truncated data ", trunc)
	}

	if r1, err := stats.Autocorrelation(data, 1); err == nil {
		fmt.Fprintf(w, "\nlag-1 autocorrelation: %.4f\n", r1)
	}

	rm := stats.RunningMean(data)
	rmin := stats.RunningMin(data)
	fmt.Fprintln(w, "\nestimator convergence (§5: the min settles, the mean need not):")
	for _, frac := range []float64{0.1, 0.5, 1.0} {
		i := int(frac*float64(len(data))) - 1
		if i < 0 {
			i = 0
		}
		fmt.Fprintf(w, "  after %6d samples: running mean %.4f, running min %.4f\n", i+1, rm[i], rmin[i])
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traceanalyze:", err)
	os.Exit(1)
}
