package paratune

// The benchmark harness regenerates every figure in the paper's evaluation
// (the paper has no numbered tables — Figs. 1 and 3–10 are the complete
// result set) plus the design-choice ablations from DESIGN.md. Each
// Benchmark runs the corresponding experiment at reduced replication
// (Quick mode) so `go test -bench=.` finishes in minutes; `cmd/expgen`
// regenerates the full-scale versions. Reported custom metrics carry the
// figure's headline numbers so the bench output doubles as a results table.
//
// Micro-benchmarks for the hot paths (Pareto sampling, database lookup,
// simulator steps, PRO iterations) follow the figure benches.

import (
	"fmt"
	"net"
	"strconv"
	"testing"

	"paratune/internal/cluster"
	"paratune/internal/core"
	"paratune/internal/dist"
	"paratune/internal/experiment"
	"paratune/internal/feddb"
	"paratune/internal/harmony"
	"paratune/internal/measuredb"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

func benchFigure(b *testing.B, id string) *experiment.Figure {
	b.Helper()
	b.ReportAllocs()
	cfg := experiment.Config{Seed: 42, Quick: true}
	var fig *experiment.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiment.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return fig
}

// BenchmarkFig1MetricDiscrepancy regenerates Fig. 1 (iteration time vs
// Total_Time for three algorithm variants).
func BenchmarkFig1MetricDiscrepancy(b *testing.B) {
	fig := benchFigure(b, "fig1")
	b.ReportMetric(float64(len(fig.CSVRows)), "rows")
}

// BenchmarkFig2SimplexGeometry regenerates Fig. 2 (transform geometry).
func BenchmarkFig2SimplexGeometry(b *testing.B) { benchFigure(b, "fig2") }

// BenchmarkFig3Traces regenerates Fig. 3 (per-processor run-time traces).
func BenchmarkFig3Traces(b *testing.B) { benchFigure(b, "fig3") }

// BenchmarkFig4Pdf regenerates Fig. 4 (pdf of the trace data).
func BenchmarkFig4Pdf(b *testing.B) { benchFigure(b, "fig4") }

// BenchmarkFig5TailPlot regenerates Fig. 5 (log-log 1-cdf).
func BenchmarkFig5TailPlot(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFig6TruncatedPdf regenerates Fig. 6 (pdf, samples > 5 removed).
func BenchmarkFig6TruncatedPdf(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7TruncatedTail regenerates Fig. 7 (truncated log-log 1-cdf).
func BenchmarkFig7TruncatedTail(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8Surface regenerates Fig. 8 (GS2 surface slice).
func BenchmarkFig8Surface(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFig9InitialSimplex regenerates Fig. 9 (initial simplex study).
func BenchmarkFig9InitialSimplex(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkFig10MultiSampling regenerates the headline Fig. 10 (avg NTT vs
// samples K per idle-throughput level).
func BenchmarkFig10MultiSampling(b *testing.B) {
	fig := benchFigure(b, "fig10")
	// Surface the rho=0.40, K=1 vs best-K contrast as custom metrics.
	last := fig.CSVRows[0]
	b.ReportMetric(last[len(last)-2], "NTT-rho.4-K1")
}

// BenchmarkAblationEstimators regenerates the §5 min/mean/median ablation.
func BenchmarkAblationEstimators(b *testing.B) { benchFigure(b, "ablation-estimators") }

// BenchmarkAblationExpansionCheck regenerates the expansion-check ablation.
func BenchmarkAblationExpansionCheck(b *testing.B) { benchFigure(b, "ablation-expansion") }

// BenchmarkAblationAcceptRule regenerates the accept-rule ablation.
func BenchmarkAblationAcceptRule(b *testing.B) { benchFigure(b, "ablation-accept") }

// BenchmarkAblationProjection regenerates the projection ablation.
func BenchmarkAblationProjection(b *testing.B) { benchFigure(b, "ablation-projection") }

// BenchmarkAblationRemeasure regenerates the incumbent re-measurement
// ablation.
func BenchmarkAblationRemeasure(b *testing.B) { benchFigure(b, "ablation-remeasure") }

// BenchmarkExtAdaptiveK regenerates the §5.2 adaptive sample-count
// controller extension.
func BenchmarkExtAdaptiveK(b *testing.B) { benchFigure(b, "ext-adaptive-k") }

// BenchmarkExtAsync regenerates the footnote-1 asynchronous-tuning
// extension (barrier vs async wall-clock).
func BenchmarkExtAsync(b *testing.B) { benchFigure(b, "ext-async") }

// BenchmarkExtParallelSampling regenerates the §5.2 free-parallel-samples
// extension.
func BenchmarkExtParallelSampling(b *testing.B) { benchFigure(b, "ext-parallel-sampling") }

// BenchmarkExtSharedNoise regenerates the machine-wide vs independent
// variability comparison.
func BenchmarkExtSharedNoise(b *testing.B) { benchFigure(b, "ext-shared-noise") }

// --- Micro-benchmarks ---

// BenchmarkParetoSample measures heavy-tail variate generation.
func BenchmarkParetoSample(b *testing.B) {
	p := dist.Pareto{Alpha: 1.7, Beta: 1}
	rng := dist.NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += p.Sample(rng)
	}
	_ = sink
}

// BenchmarkTwoPriorityPerturb measures one queueing-model observation.
func BenchmarkTwoPriorityPerturb(b *testing.B) {
	q, err := noise.NewTwoPriorityQueue(2, dist.Exponential{Lambda: 10})
	if err != nil {
		b.Fatal(err)
	}
	rng := dist.NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += q.Perturb(1, rng)
	}
	_ = sink
}

// BenchmarkGS2EvalHit measures an exact database lookup.
func BenchmarkGS2EvalHit(b *testing.B) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 1, Coverage: 1})
	p := db.Space().Center()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += db.Eval(p)
	}
	_ = sink
}

// BenchmarkGS2EvalInterpolated measures a nearest-neighbour interpolation
// over the partially covered database.
func BenchmarkGS2EvalInterpolated(b *testing.B) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 1, Coverage: 0.5})
	// Find a missing grid point.
	var missing space.Point
	_ = db.Space().Enumerate(func(p space.Point) {
		if missing == nil {
			if _, ok := db.Lookup(p); !ok {
				missing = p.Clone()
			}
		}
	})
	if missing == nil {
		b.Skip("database complete")
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += db.Eval(missing)
	}
	_ = sink
}

// BenchmarkClusterStepTuning measures one barrier-synchronised SPMD step of
// 64 processors under Pareto noise in a tuning shape: 6 observed candidates
// and 58 processors running Fill, whose draws only gate the barrier.
func BenchmarkClusterStepTuning(b *testing.B) {
	benchClusterStep(b, 6)
}

// BenchmarkClusterStepProduction measures the same step in the production
// shape of an on-line run: all 64 processors run the best configuration and
// none is observed.
func BenchmarkClusterStepProduction(b *testing.B) {
	benchClusterStep(b, 0)
}

func benchClusterStep(b *testing.B, observed int) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 1, Coverage: 1})
	m, _ := noise.NewIIDPareto(1.7, 0.2)
	sim, _ := cluster.New(64, m, 1)
	fill := db.Space().Center()
	assign := make([]space.Point, 64)
	for i := range assign {
		assign[i] = fill
	}
	for i := 0; i < observed; i++ {
		assign[i] = space.Point{8 + 8*float64(i), 4 + 4*float64(i), 4}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunStep(db, assign, observed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinOfKEstimate measures the §5 estimator reduction.
func BenchmarkMinOfKEstimate(b *testing.B) {
	est, _ := sample.NewMinOfK(5)
	obs := []float64{2.3, 2.1, 9.7, 2.2, 2.05}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += est.Estimate(obs)
	}
	_ = sink
}

// BenchmarkPROFullRun measures a complete 100-step on-line tuning session
// (PRO, min-of-2, rho=0.2, 16 processors) — the Fig. 10 unit of work.
func BenchmarkPROFullRun(b *testing.B) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 1, Coverage: 1})
	m, _ := noise.NewIIDPareto(1.7, 0.2)
	est, _ := sample.NewMinOfK(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := cluster.New(16, m, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		alg, err := core.NewPRO(core.Options{Space: db.Space(), R: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.RunOnline(alg, core.OnlineConfig{Sim: sim, F: db, Est: est, Budget: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPROIterationNoiseless measures raw optimiser iteration cost with
// a free evaluator (no simulator), isolating algorithm overhead.
func BenchmarkPROIterationNoiseless(b *testing.B) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 1, Coverage: 1})
	ev := freeEvaluator{f: db}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg, err := core.NewPRO(core.Options{Space: db.Space(), R: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		if err := alg.Init(ev); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 50 && !alg.Converged(); j++ {
			if _, err := alg.Step(ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

type freeEvaluator struct {
	f objective.Function
}

func (e freeEvaluator) Eval(points []space.Point) ([]float64, error) {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = e.f.Eval(p)
	}
	return out, nil
}

// BenchmarkStoreLookup measures the measurement database's hot-path
// exact-match lookup (AppendObsSource): a stack-keyed shard probe that must stay
// allocation-free, since it sits on every candidate evaluation of a
// DB-attached run.
func BenchmarkStoreLookup(b *testing.B) {
	s := measuredb.NewMemory(measuredb.Options{})
	sp := space.MustNew(space.IntParam("x", 0, 100), space.IntParam("y", 0, 100))
	_ = sp.Enumerate(func(p space.Point) {
		for k := 0; k < 3; k++ {
			s.Observe(p, 1+float64(k))
		}
	})
	p := sp.Center()
	dst := make([]float64, 0, 3)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst, _, _ = s.AppendObsSource(dst[:0], p, 3)
	}
	_ = dst
}

// BenchmarkStoreAppend measures one raw observation insert into a memory
// store (shard map append, no WAL I/O).
func BenchmarkStoreAppend(b *testing.B) {
	s := measuredb.NewMemory(measuredb.Options{})
	p := space.Point{42, 17}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(p, 1.5)
	}
}

// BenchmarkStoreAppendWAL measures the same insert with persistence on: the
// frame encode plus one unbuffered write(2) of the frame to the write-ahead
// log per Observe, so it costs a system call the in-memory insert does not.
func BenchmarkStoreAppendWAL(b *testing.B) {
	s, err := measuredb.Open(b.TempDir(), measuredb.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	p := space.Point{42, 17}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(p, 1.5)
	}
}

// BenchmarkHarmonyFetchReport measures one fetch+report round trip on the
// in-process tuning server.
func BenchmarkHarmonyFetchReport(b *testing.B) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 1, Coverage: 1})
	est, _ := sample.NewMinOfK(1)
	srv := NewServer(ServerOptions{Estimator: est})
	defer srv.Close()
	sp := db.Space()
	params := make([]Param, sp.Dim())
	for i := range params {
		params[i] = sp.Param(i)
	}
	if err := srv.Register("bench", params); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := srv.Fetch("bench")
		if err != nil {
			b.Fatal(err)
		}
		if fr.Tag != 0 {
			_ = srv.Report("bench", fr.Tag, db.Eval(fr.Point))
		}
	}
}

// BenchmarkHarmonyReportN measures one 16-item ReportN round trip over
// loopback PHWIRE1: client encode, the socket both ways, server decode, the
// session's slot fills and the reply. Each frame fills 16 fresh sample
// slots, taken from a 1024-slot FetchN made outside the timer. K = 4096
// keeps a batch open for many frames, so the optimiser steps on few of
// them; a converged session is replaced by a fresh one, also untimed.
func BenchmarkHarmonyReportN(b *testing.B) {
	const frameItems = 16
	db := objective.GenerateGS2(objective.GS2Config{Seed: 1, Coverage: 1})
	est, _ := sample.NewMinOfK(4096)
	l, srv, err := ListenAndServe("127.0.0.1:0", ServerOptions{Estimator: est})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	defer l.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	sp := db.Space()
	params := make([]Param, sp.Dim())
	for i := range params {
		params[i] = sp.Param(i)
	}
	sessions, name := 0, ""
	var slots []FetchResult
	items := make([]harmony.ReportItem, frameItems)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for len(slots) < frameItems {
			b.StopTimer()
			if len(slots) == 0 || slots[0].Converged {
				sessions++
				name = fmt.Sprintf("bench-%d", sessions)
				if err := c.Register(name, params); err != nil {
					b.Fatal(err)
				}
			}
			if slots, err = c.FetchN(name, 1024); err != nil {
				b.Fatal(err)
			}
			if len(slots) < frameItems && !slots[0].Converged {
				b.Fatalf("FetchN granted %d slots", len(slots))
			}
			b.StartTimer()
		}
		for j := range items {
			items[j] = harmony.ReportItem{Tag: slots[j].Tag, Value: 1 + float64(j)}
		}
		slots = slots[frameItems:]
		res, err := c.ReportN(name, items)
		if err != nil || res.Accepted != frameItems {
			b.Fatalf("ReportN = %+v, %v", res, err)
		}
	}
}

// frameConn counts a client's writes: the PHWIRE1 preamble, then one write
// per request frame.
type frameConn struct {
	net.Conn
	writes *int
}

func (c frameConn) Write(b []byte) (int, error) {
	*c.writes++
	return c.Conn.Write(b)
}

// BenchmarkHarmonyWarmRegister measures one fully warm session over
// loopback PHWIRE1: Register, which converges the session from a pre-filled
// memory store behind a feddb.Cache, then the FetchN that reads its
// converged answer. frames/op counts the request frames the client writes
// per session.
func BenchmarkHarmonyWarmRegister(b *testing.B) {
	gs2 := objective.GenerateGS2(objective.GS2Config{Seed: 1, Coverage: 1})
	sp := gs2.Space()
	params := make([]Param, sp.Dim())
	for i := range params {
		params[i] = sp.Param(i)
	}
	est, _ := sample.NewMinOfK(3)
	db := measuredb.NewMemory(measuredb.Options{})
	cold := NewServer(ServerOptions{Estimator: est, DB: db})
	if err := cold.Register("cold", params); err != nil {
		b.Fatal(err)
	}
	for {
		fr, err := cold.Fetch("cold")
		if err != nil {
			b.Fatal(err)
		}
		if fr.Converged {
			break
		}
		if fr.Tag != 0 {
			_ = cold.Report("cold", fr.Tag, gs2.Eval(fr.Point))
		}
	}
	cold.Close()

	l, srv, err := ListenAndServe("127.0.0.1:0", ServerOptions{
		Estimator: est, DB: db, Cache: feddb.NewCache(db, est, est.K(), 0),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	defer l.Close()
	writes := 0
	c, err := harmony.DialWith(l.Addr().String(), harmony.DialOptions{
		DialFunc: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				return nil, err
			}
			return frameConn{Conn: conn, writes: &writes}, nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	start := writes
	for i := 0; i < b.N; i++ {
		name := "warm-" + strconv.Itoa(i)
		if err := c.Register(name, params); err != nil {
			b.Fatal(err)
		}
		frs, err := c.FetchN(name, 16)
		if err != nil {
			b.Fatal(err)
		}
		if len(frs) != 1 || !frs[0].Converged {
			b.Fatalf("warm session %s answered %+v", name, frs)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(writes-start)/float64(b.N), "frames/op")
}

// Example of the bench-as-results-table idea: verify the headline Fig. 10
// property at bench scale and print it.
func Example_fig10Shape() {
	fig, err := experiment.Run("fig10", experiment.Config{Seed: 42, Quick: true})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// NTT at K=1 must grow with the idle throughput: the first row's columns
	// alternate (mean, se) per rho in ascending rho order, so the last mean
	// (index len-2) exceeds the first (index 1).
	first := fig.CSVRows[0]
	fmt.Println("NTT grows with rho at K=1:", first[len(first)-2] > first[1])
	// Output:
	// NTT grows with rho at K=1: true
}
