package experiment

import (
	"fmt"

	"paratune/internal/cluster"
	"paratune/internal/dist"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/plot"
	"paratune/internal/stats"
)

// traceProcs is how many processor traces Fig. 3 plots (4 of 64 in the paper).
const traceProcs = 4

// traceThreshold is the cut used by Figs. 6–7 to isolate the small spikes;
// the paper removes all samples larger than 5 (seconds).
const traceThreshold = 5.0

// gs2TraceModel reproduces the qualitative structure of the measured GS2
// traces: per-processor house-keeping noise (a two-priority queue with
// mostly small exponential jobs and occasional heavy-tailed ones — the
// "small spikes" of Fig. 3) plus a machine-wide heavy-tailed component drawn
// once per time step (the "big spikes", which the paper observed to be
// highly correlated across processors).
func gs2TraceModel() (noise.Model, error) {
	// Per-processor house-keeping: frequent small exponential jobs.
	perProc, err := noise.NewTwoPriorityQueue(0.5, dist.Exponential{Lambda: 8})
	if err != nil {
		return nil, err
	}
	// Machine-wide bursts: shared per step, heavy-tailed (α = 1.5), the
	// dominant tail and the source of the correlated big spikes.
	shared, err := noise.NewSharedBurst(0.08, 1.5, 1.2)
	if err != nil {
		return nil, err
	}
	return noise.Composite{Models: []noise.Model{perProc, shared}}, nil
}

// generateGS2Traces runs the fixed-parameter GS2 job and returns per-
// processor traces plus the flattened sample pool used by Figs. 4–7. The job
// reads the surface at one stored point, so it evaluates the analytic
// surface there instead of building the database.
func generateGS2Traces(cfg Config, steps, procs int) ([][]float64, []float64, error) {
	f := objective.GS2Surface(gs2Config(cfg.Seed))
	model, err := gs2TraceModel()
	if err != nil {
		return nil, nil, err
	}
	sim, err := cluster.New(procs, model, cfg.Seed+100)
	if err != nil {
		return nil, nil, err
	}
	// Fixed parameters: the centre configuration, as in §4.3's fixed-
	// parameter study.
	traces, err := sim.RunFixed(f, f.Space().Center(), steps)
	if err != nil {
		return nil, nil, err
	}
	all := make([]float64, 0, procs*steps)
	for _, tr := range traces {
		all = append(all, tr...)
	}
	return traces, all, nil
}

func traceShape(cfg Config) (steps, procs int) {
	if cfg.Quick {
		return 200, 8
	}
	return 800, 64 // the paper's 800 time steps on 64 processors
}

// Fig3Traces regenerates Fig. 3: running time for 800 iterations of the
// fixed-parameter GS2 job on 4 of the 64 processors.
func Fig3Traces(cfg Config) (*Figure, error) {
	steps, procs := traceShape(cfg)
	traces, all, err := generateGS2Traces(cfg, steps, procs)
	if err != nil {
		return nil, err
	}
	header := []string{"step"}
	for p := 0; p < traceProcs; p++ {
		header = append(header, fmt.Sprintf("proc%d", p))
	}
	rows := make([][]float64, steps)
	xs := make([]float64, steps)
	for k := 0; k < steps; k++ {
		xs[k] = float64(k)
		row := make([]float64, 1+traceProcs)
		row[0] = float64(k)
		for p := 0; p < traceProcs; p++ {
			row[1+p] = traces[p][k]
		}
		rows[k] = row
	}
	series := make([]plot.Series, traceProcs)
	for p := 0; p < traceProcs; p++ {
		series[p] = plot.Series{Name: fmt.Sprintf("proc %d", p), X: xs, Y: traces[p][:steps]}
	}
	rendered, err := plot.Line(plot.Config{
		Title:  fmt.Sprintf("Fig. 3 — per-step run time, %d steps, %d of %d processors", steps, traceProcs, procs),
		XLabel: "time step", YLabel: "iteration time (s)",
	}, series...)
	if err != nil {
		return nil, err
	}
	sum := stats.Summarize(all)
	big := 0
	for _, v := range all {
		if v > traceThreshold {
			big++
		}
	}
	// Cross-processor correlation of the per-step times (the paper: "high
	// correlation and similarity between the curves").
	corr, corrN := 0.0, 0
	for p := 1; p < traceProcs; p++ {
		if c, err := crossCorrelation(traces[0][:steps], traces[p][:steps]); err == nil {
			corr += c
			corrN++
		}
	}
	if corrN > 0 {
		corr /= float64(corrN)
	}
	return &Figure{
		ID:        "fig3",
		Title:     "Running time for fixed-parameter GS2 (Fig. 3)",
		CSVHeader: header,
		CSVRows:   rows,
		Rendered:  rendered,
		Notes: notes(
			fmt.Sprintf("samples=%d mean=%.3f max=%.3f", sum.N, sum.Mean, sum.Max),
			fmt.Sprintf("big spikes (> %.0fs): %d (%.2f%%) — paper: two distinct spike classes visible",
				traceThreshold, big, 100*float64(big)/float64(len(all))),
			fmt.Sprintf("mean cross-processor correlation with proc 0: %.3f — paper: high correlation between curves", corr),
		),
	}, nil
}

// crossCorrelation returns the Pearson correlation of two equal-length
// series.
func crossCorrelation(a, b []float64) (float64, error) {
	if len(a) != len(b) || len(a) < 2 {
		return 0, fmt.Errorf("experiment: correlation needs equal series, got %d/%d", len(a), len(b))
	}
	sa, sb := stats.Summarize(a), stats.Summarize(b)
	if sa.Std == 0 || sb.Std == 0 {
		return 0, fmt.Errorf("experiment: zero-variance series")
	}
	var num float64
	for i := range a {
		num += (a[i] - sa.Mean) * (b[i] - sb.Mean)
	}
	return num / (float64(len(a)-1) * sa.Std * sb.Std), nil
}

// Fig4Pdf regenerates Fig. 4: the pdf (histogram) of the pooled trace data.
func Fig4Pdf(cfg Config) (*Figure, error) {
	steps, procs := traceShape(cfg)
	_, all, err := generateGS2Traces(cfg, steps, procs)
	if err != nil {
		return nil, err
	}
	return pdfFigure("fig4", "pdf of the GS2 data (Fig. 4)", all)
}

// Fig6TruncatedPdf regenerates Fig. 6: the pdf after removing samples > 5.
func Fig6TruncatedPdf(cfg Config) (*Figure, error) {
	steps, procs := traceShape(cfg)
	_, all, err := generateGS2Traces(cfg, steps, procs)
	if err != nil {
		return nil, err
	}
	trunc := stats.Truncate(all, traceThreshold)
	fig, err := pdfFigure("fig6", "pdf of the truncated GS2 data (Fig. 6)", trunc)
	if err != nil {
		return nil, err
	}
	fig.Notes = notes(fig.Notes,
		fmt.Sprintf("truncation removed %d of %d samples (> %.0fs)", len(all)-len(trunc), len(all), traceThreshold))
	return fig, nil
}

func pdfFigure(id, title string, data []float64) (*Figure, error) {
	h, err := stats.AutoHistogram(data, 30)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, len(h.Counts))
	labels := make([]string, len(h.Counts))
	dens := make([]float64, len(h.Counts))
	for i := range h.Counts {
		rows[i] = []float64{h.BinCenter(i), h.Density(i), float64(h.Counts[i])}
		labels[i] = fmt.Sprintf("%7.2f", h.BinCenter(i))
		dens[i] = h.Density(i)
	}
	rendered, err := plot.Bars(plot.Config{Title: title}, labels, dens)
	if err != nil {
		return nil, err
	}
	// The paper reads "the last three bars are not negligible" as tail
	// evidence; report the tail bin mass.
	tailMass := 0.0
	for i := len(h.Counts) - 3; i < len(h.Counts); i++ {
		if i >= 0 {
			tailMass += h.Fraction(i)
		}
	}
	return &Figure{
		ID:        id,
		Title:     title,
		CSVHeader: []string{"bin_center", "density", "count"},
		CSVRows:   rows,
		Rendered:  rendered,
		Notes:     fmt.Sprintf("mass in the last 3 bins: %.5f (non-negligible => tail component)", tailMass),
	}, nil
}

// Fig5Tail regenerates Fig. 5: the log-log 1-cdf of the pooled data, with a
// tail-index fit.
func Fig5Tail(cfg Config) (*Figure, error) {
	steps, procs := traceShape(cfg)
	_, all, err := generateGS2Traces(cfg, steps, procs)
	if err != nil {
		return nil, err
	}
	return tailFigure("fig5", "1-cdf of the GS2 data, log-log (Fig. 5)", all)
}

// Fig7TruncatedTail regenerates Fig. 7: the log-log 1-cdf of the truncated
// data, showing the small spikes alone are heavy-tailed too.
func Fig7TruncatedTail(cfg Config) (*Figure, error) {
	steps, procs := traceShape(cfg)
	_, all, err := generateGS2Traces(cfg, steps, procs)
	if err != nil {
		return nil, err
	}
	trunc := stats.Truncate(all, traceThreshold)
	return tailFigure("fig7", "1-cdf of the truncated GS2 data, log-log (Fig. 7)", trunc)
}

func tailFigure(id, title string, data []float64) (*Figure, error) {
	e, err := stats.NewECDF(data)
	if err != nil {
		return nil, err
	}
	xs, qs := e.SurvivalPoints()
	rows := make([][]float64, len(xs))
	for i := range xs {
		rows[i] = []float64{xs[i], qs[i]}
	}
	rendered, err := plot.Line(plot.Config{
		Title: title, XLabel: "x", YLabel: "P[X > x]", LogX: true, LogY: true,
	}, plot.Series{Name: "1-cdf", X: xs, Y: qs})
	if err != nil {
		return nil, err
	}
	fit, err := stats.LogLogTailFit(data, 0.2)
	if err != nil {
		return nil, err
	}
	hill := 0.0
	if k := len(data) / 20; k >= 1 && k < len(data) {
		if h, err := stats.HillEstimator(data, k); err == nil {
			hill = h
		}
	}
	return &Figure{
		ID:        id,
		Title:     title,
		CSVHeader: []string{"x", "survival"},
		CSVRows:   rows,
		Rendered:  rendered,
		Notes: notes(
			fmt.Sprintf("log-log tail fit: alpha=%.3f R2=%.3f (linear tail => heavy tail, Eq. 8)", fit.Alpha, fit.R2),
			fmt.Sprintf("Hill estimate: alpha=%.3f; heavy-tailed per criterion: %v", hill, fit.HeavyTailed()),
		),
	}, nil
}
