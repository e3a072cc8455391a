package experiment

import (
	"math"
	"strings"
	"testing"
)

var quickCfg = Config{Seed: 42, Quick: true}

// checkFigure validates the invariants every figure must satisfy.
func checkFigure(t *testing.T, f *Figure, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if f.ID == "" || f.Title == "" {
		t.Error("missing ID/Title")
	}
	if len(f.CSVHeader) == 0 || len(f.CSVRows) == 0 {
		t.Fatalf("%s: empty CSV data", f.ID)
	}
	for i, row := range f.CSVRows {
		if len(row) != len(f.CSVHeader) {
			t.Fatalf("%s: row %d has %d columns, header %d", f.ID, i, len(row), len(f.CSVHeader))
		}
	}
	if f.Rendered == "" {
		t.Errorf("%s: empty rendering", f.ID)
	}
	if f.Notes == "" {
		t.Errorf("%s: empty notes", f.ID)
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Registry() {
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// Every paper figure must be present.
	for _, want := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"} {
		if !ids[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", quickCfg); err == nil {
		t.Error("unknown figure should error")
	}
}

func TestFig1(t *testing.T) {
	f, err := Fig1MetricDiscrepancy(quickCfg)
	checkFigure(t, f, err)
	if !strings.Contains(f.Notes, "Total_Time") {
		t.Errorf("notes: %s", f.Notes)
	}
}

func TestFig2(t *testing.T) {
	f, err := Fig2SimplexGeometry(quickCfg)
	checkFigure(t, f, err)
	if len(f.CSVRows) != 12 {
		t.Errorf("rows = %d, want 12 (4 simplexes x 3 points)", len(f.CSVRows))
	}
}

func TestFig3(t *testing.T) {
	f, err := Fig3Traces(quickCfg)
	checkFigure(t, f, err)
	if len(f.CSVHeader) != 1+traceProcs {
		t.Errorf("header = %v", f.CSVHeader)
	}
	// Trace values are positive times.
	for _, row := range f.CSVRows {
		for _, v := range row[1:] {
			if v <= 0 {
				t.Fatalf("non-positive trace value %g", v)
			}
		}
	}
}

// TestFig3Claims pins Fig. 3 at three seeds at Quick scale, from the
// figure's CSV traces: the curves are highly correlated (mean Pearson
// correlation of each processor with processor 0 at least 0.9), and the big
// spike class is present (some sample exceeds traceThreshold).
func TestFig3Claims(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		f, err := Fig3Traces(Config{Seed: seed, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		traces := make([][]float64, traceProcs)
		big, n := 0, 0
		for _, row := range f.CSVRows { // step, proc0 … proc3
			for p, v := range row[1:] {
				traces[p] = append(traces[p], v)
				n++
				if v > traceThreshold {
					big++
				}
			}
		}
		corr := 0.0
		for p := 1; p < traceProcs; p++ {
			c, err := crossCorrelation(traces[0], traces[p])
			if err != nil {
				t.Fatal(err)
			}
			corr += c
		}
		corr /= traceProcs - 1
		if !(corr >= 0.9) {
			t.Errorf("seed %d: mean cross-processor correlation %.3f, want at least 0.9", seed, corr)
		}
		if big == 0 {
			t.Errorf("seed %d: no sample of %d exceeds %gs; want the big spike class", seed, n, traceThreshold)
		}
		t.Logf("seed %d: correlation %.3f, %d big spikes of %d samples", seed, corr, big, n)
	}
}

func TestFig4(t *testing.T) {
	f, err := Fig4Pdf(quickCfg)
	checkFigure(t, f, err)
}

func TestFig5HeavyTailDetected(t *testing.T) {
	f, err := Fig5Tail(quickCfg)
	checkFigure(t, f, err)
	if !strings.Contains(f.Notes, "alpha=") {
		t.Errorf("notes should contain a tail fit: %s", f.Notes)
	}
}

func TestFig6(t *testing.T) {
	f, err := Fig6TruncatedPdf(quickCfg)
	checkFigure(t, f, err)
	if !strings.Contains(f.Notes, "truncation removed") {
		t.Errorf("notes: %s", f.Notes)
	}
}

func TestFig7(t *testing.T) {
	f, err := Fig7TruncatedTail(quickCfg)
	checkFigure(t, f, err)
	// Truncated data must not exceed the threshold.
	for _, row := range f.CSVRows {
		if row[0] > traceThreshold {
			t.Fatalf("truncated survival point at x=%g > %g", row[0], traceThreshold)
		}
	}
}

func TestFig8(t *testing.T) {
	f, err := Fig8Surface(quickCfg)
	checkFigure(t, f, err)
	if len(f.CSVRows) != 57*29 {
		t.Errorf("rows = %d, want %d", len(f.CSVRows), 57*29)
	}
}

func TestFig9(t *testing.T) {
	f, err := Fig9InitialSimplex(quickCfg)
	checkFigure(t, f, err)
	if !strings.Contains(f.Notes, "2N beats minimal") {
		t.Errorf("notes: %s", f.Notes)
	}
}

// TestFig9Claims pins Fig. 9 at three seeds at Quick scale, r ∈ {0.1, 0.2,
// 0.6}. 2N's lowest NTT is at the largest r, the "large r wins" deviation
// EXPERIMENTS.md records, and at that r 2N beats the minimal simplex. The
// paper's r = 0.2 ordering is not asserted: minimal beats 2N there at
// seed 42.
func TestFig9Claims(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		f, err := Fig9InitialSimplex(Config{Seed: seed, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		rows := f.CSVRows // r, ntt_2N, ntt_minimal
		large := rows[len(rows)-1]
		if large[0] != 0.6 {
			t.Fatalf("seed %d: last r is %g, want 0.6", seed, large[0])
		}
		for _, row := range rows[:len(rows)-1] {
			if !(large[1] < row[1]) {
				t.Errorf("seed %d: 2N NTT %.2f at r=%g, %.2f at r=0.6; want r=0.6 lowest", seed, row[1], row[0], large[1])
			}
		}
		if !(large[1] < large[2]) {
			t.Errorf("seed %d: at r=0.6 2N NTT %.2f, minimal %.2f; want 2N ahead", seed, large[1], large[2])
		}
		t.Logf("seed %d: NTT 2N / minimal %.2f / %.2f, %.2f / %.2f, %.2f / %.2f", seed,
			rows[0][1], rows[0][2], rows[1][1], rows[1][2], large[1], large[2])
	}
}

func TestFig10(t *testing.T) {
	f, err := Fig10MultiSampling(quickCfg)
	checkFigure(t, f, err)
	if !strings.Contains(f.Notes, "optimal K") {
		t.Errorf("notes: %s", f.Notes)
	}
}

// TestFig10Claims pins Fig. 10 at three seeds. At ρ=0 every sample costs
// the same whole step, so the NTT line rises linearly in K: its increments
// are positive and equal to within 1e-9 relative. And K=1 has the lowest
// NTT at every ρ, the flat optimum K that EXPERIMENTS.md records.
func TestFig10Claims(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		f, err := Fig10MultiSampling(Config{Seed: seed, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		rows := f.CSVRows
		if f.CSVHeader[1] != "rho=0.00" {
			t.Fatalf("seed %d: column 1 is %q, want the ρ=0 line", seed, f.CSVHeader[1])
		}
		d0 := rows[1][1] - rows[0][1]
		for i := 1; i+1 < len(rows); i++ {
			if d := rows[i+1][1] - rows[i][1]; !(d0 > 0) || math.Abs(d-d0) > 1e-9*d0 {
				t.Errorf("seed %d: ρ=0 NTT rises by %v then %v between K=%g, %g, %g; want equal positive steps",
					seed, d0, d, rows[i-1][0], rows[i][0], rows[i+1][0])
			}
		}
		for c := 1; c < len(f.CSVHeader); c += 2 {
			for _, row := range rows[1:] {
				if !(rows[0][c] < row[c]) {
					t.Errorf("seed %d %s: K=1 NTT %.2f, K=%g %.2f; want K=1 lowest", seed, f.CSVHeader[c], rows[0][c], row[0], row[c])
				}
			}
		}
		t.Logf("seed %d: ρ=0 NTT %.2f, %.2f, %.2f", seed, rows[0][1], rows[1][1], rows[2][1])
	}
}

func TestAblations(t *testing.T) {
	for _, id := range []string{"ablation-estimators", "ablation-expansion", "ablation-accept", "ablation-projection", "ablation-remeasure"} {
		t.Run(id, func(t *testing.T) {
			f, err := Run(id, quickCfg)
			checkFigure(t, f, err)
		})
	}
}

// Determinism: the same seed regenerates identical figures.
func TestFiguresDeterministic(t *testing.T) {
	a, err := Fig10MultiSampling(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig10MultiSampling(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.CSVRows) != len(b.CSVRows) {
		t.Fatal("row count changed")
	}
	for i := range a.CSVRows {
		for j := range a.CSVRows[i] {
			if a.CSVRows[i][j] != b.CSVRows[i][j] {
				t.Fatalf("row %d col %d: %g != %g", i, j, a.CSVRows[i][j], b.CSVRows[i][j])
			}
		}
	}
}

func TestConfigReps(t *testing.T) {
	if (Config{Replications: 7}).reps(100, 5) != 7 {
		t.Error("explicit reps")
	}
	if (Config{Quick: true}).reps(100, 5) != 5 {
		t.Error("quick reps")
	}
	if (Config{}).reps(100, 5) != 100 {
		t.Error("default reps")
	}
}

func TestExtAdaptiveK(t *testing.T) {
	f, err := ExtAdaptiveK(quickCfg)
	checkFigure(t, f, err)
	if !strings.Contains(f.Notes, "controller settled") {
		t.Errorf("notes: %s", f.Notes)
	}
}

func TestExtAsync(t *testing.T) {
	f, err := ExtAsync(quickCfg)
	checkFigure(t, f, err)
	if !strings.Contains(f.Notes, "speedup") {
		t.Errorf("notes: %s", f.Notes)
	}
}

func TestExtParallelSampling(t *testing.T) {
	f, err := ExtParallelSampling(quickCfg)
	checkFigure(t, f, err)
	if !strings.Contains(f.Notes, "overhead") {
		t.Errorf("notes: %s", f.Notes)
	}
}

// TestExtParallelSamplingClaims pins §5.2's closing observation at three
// seeds: on 64 processors, each extra sample taken in a subsequent step
// costs NTT, and taking it in parallel on idle processors costs less than
// half as much. The slopes run from the smallest to the largest K.
func TestExtParallelSamplingClaims(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		f, err := ExtParallelSampling(Config{Seed: seed, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		first, last := f.CSVRows[0], f.CSVRows[len(f.CSVRows)-1]
		dk := last[0] - first[0]
		seq, par := (last[1]-first[1])/dk, (last[3]-first[3])/dk
		if !(seq > 0) {
			t.Errorf("seed %d: sequential sampling costs %.2f NTT per sample, want a positive slope", seed, seq)
		}
		if !(par < seq/2) {
			t.Errorf("seed %d: parallel sampling costs %.2f NTT per sample, want under half of sequential %.2f", seed, par, seq)
		}
		t.Logf("seed %d: NTT per sample %.2f sequential, %.2f parallel", seed, seq, par)
	}
}

func TestExtSharedNoise(t *testing.T) {
	f, err := ExtSharedNoise(quickCfg)
	checkFigure(t, f, err)
	if !strings.Contains(f.Notes, "shared") {
		t.Errorf("notes: %s", f.Notes)
	}
}
