package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches golden expectations: // want "regex"
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

type diagKey struct {
	file string
	line int
}

// loadTestdata loads the testdata package in dir under importPath, with
// optional pre-checked dependencies, failing the test on any load or type
// error.
func loadTestdata(t *testing.T, dir, importPath string, deps map[string]*Package) *Package {
	t.Helper()
	pkg, err := loadDirWithDeps(filepath.Join("testdata", dir), importPath, deps)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("type error in %s: %v", dir, terr)
	}
	if t.Failed() {
		t.FailNow()
	}
	return pkg
}

// checkWants compares findings against the // want expectations embedded in
// the given sources.
func checkWants(t *testing.T, srcs map[string][]byte, diags []Diagnostic) {
	t.Helper()
	wants := make(map[diagKey]*regexp.Regexp)
	for name, src := range srcs {
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, m[1], err)
			}
			wants[diagKey{name, i + 1}] = re
		}
	}

	matched := make(map[diagKey]bool)
	for _, d := range diags {
		k := diagKey{d.Pos.Filename, d.Pos.Line}
		re, ok := wants[k]
		if !ok {
			t.Errorf("unexpected diagnostic %s", d)
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("%s:%d: diagnostic %q does not match want %q", d.Pos.Filename, d.Pos.Line, d.Message, re)
		}
		matched[k] = true
	}
	for k, re := range wants {
		if !matched[k] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

// runGolden loads the testdata package in dir as importPath, runs one
// analyzer over it, and checks the findings against the // want
// expectations embedded in the source.
func runGolden(t *testing.T, a *Analyzer, dir, importPath string) {
	t.Helper()
	pkg := loadTestdata(t, dir, importPath, nil)
	checkWants(t, pkg.Src, Run([]*Package{pkg}, []*Analyzer{a}))
}

// TestDeterminismSimPackage runs the simulation-package fixture as
// internal/cluster and as the external test package of a listed package.
func TestDeterminismSimPackage(t *testing.T) {
	for _, path := range []string{
		"paratune/internal/cluster",
		"paratune/internal/noise_test",
	} {
		t.Run(path, func(t *testing.T) {
			runGolden(t, Determinism, "determinism_sim", path)
		})
	}
}

// TestDeterminismSamplePackage runs the simulation-package fixture as
// internal/sample, whose estimators seed per-candidate streams: every clock,
// pid or crypto/rand seed in it is reported.
func TestDeterminismSamplePackage(t *testing.T) {
	runGolden(t, Determinism, "determinism_sim", "paratune/internal/sample")
}

// TestDeterminismRealNewRNG runs determinism over the source of the real
// internal/dist and the fixture as an importer of it: dist itself, the one
// seeded-RNG constructor, raises nothing, and each clock or pid seed the
// importer hands to dist.NewRNG is reported at its read.
func TestDeterminismRealNewRNG(t *testing.T) {
	dep, err := loadDirWithDeps(filepath.Join("..", "dist"), "paratune/internal/dist", nil)
	if err != nil {
		t.Fatalf("loading internal/dist: %v", err)
	}
	use := loadTestdata(t, "determinism_sim", "paratune/internal/noise",
		map[string]*Package{"paratune/internal/dist": dep})
	diags := Run([]*Package{dep, use}, []*Analyzer{Determinism})
	checkWants(t, use.Src, diags)
	if len(diags) == 0 {
		t.Fatal("determinism reported nothing over an importer of the real dist.NewRNG")
	}
}

// TestDeterminismEventPackage pins that the event stream layer is held to
// the same seed-purity rules as the simulation core: a wall-clock read in a
// recorder would break byte-identical golden traces.
func TestDeterminismEventPackage(t *testing.T) {
	runGolden(t, Determinism, "determinism_sim", "paratune/internal/event")
}

// TestDeterminismImpersonatedDist runs the simulation-package fixture with
// its dist import bound to a testdata stand-in: a clock-derived seed is
// reported at the clock read whatever NewRNG it reaches.
func TestDeterminismImpersonatedDist(t *testing.T) {
	dep := loadTestdata(t, "determinism_dist", "paratune/internal/dist", nil)
	use := loadTestdata(t, "determinism_sim", "paratune/internal/cluster",
		map[string]*Package{"paratune/internal/dist": dep})
	srcs := make(map[string][]byte)
	for name, b := range dep.Src {
		srcs[name] = b
	}
	for name, b := range use.Src {
		srcs[name] = b
	}
	checkWants(t, srcs, Run([]*Package{dep, use}, []*Analyzer{Determinism}))
}

func TestDeterminismNonSimPackage(t *testing.T) {
	runGolden(t, Determinism, "determinism_nonsim", "paratune/internal/harmony")
}

func TestLockDiscipline(t *testing.T) {
	runGolden(t, LockDiscipline, "lockdiscipline", "paratune/internal/harmony")
}

func TestFloatCompare(t *testing.T) {
	runGolden(t, FloatCompare, "floatcompare", "paratune/internal/stats")
}

// TestFloatCompareScope checks the rule stays silent outside the
// rank-ordering/stats packages, no matter what the code does.
func TestFloatCompareScope(t *testing.T) {
	pkg := loadTestdata(t, "floatcompare", "paratune/internal/harmony", nil)
	if diags := Run([]*Package{pkg}, []*Analyzer{FloatCompare}); len(diags) != 0 {
		t.Errorf("floatcompare fired outside its package scope: %v", diags)
	}
}

func TestErrDiscipline(t *testing.T) {
	runGolden(t, ErrDiscipline, "errdiscipline", "paratune/internal/harmony")
}

// TestErrDisciplineScope checks the rule is confined to the wire boundary.
func TestErrDisciplineScope(t *testing.T) {
	pkg := loadTestdata(t, "errdiscipline", "paratune/internal/experiment", nil)
	if diags := Run([]*Package{pkg}, []*Analyzer{ErrDiscipline}); len(diags) != 0 {
		t.Errorf("errdiscipline fired outside the wire boundary: %v", diags)
	}
}

// TestSARIFStructure validates the emitted log against the SARIF 2.1.0
// structural requirements GitHub code scanning enforces: version, schema,
// tool driver with rules, and results with ruleId, message, and physical
// locations.
func TestSARIFStructure(t *testing.T) {
	diags := []Diagnostic{
		{
			Pos:     token.Position{Filename: "internal/cluster/cluster.go", Line: 10, Column: 3},
			Rule:    "determinism",
			Message: "wall-clock time.Now in simulation package",
		},
		{
			Pos:     token.Position{Filename: "internal/harmony/tcp.go", Line: 99, Column: 2},
			Rule:    "ctxflow",
			Message: "blocking receive outside a select",
		},
	}
	out, err := SARIF(Analyzers(), diags)
	if err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if v, _ := log["version"].(string); v != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", v)
	}
	if s, _ := log["$schema"].(string); !strings.Contains(s, "sarif-schema-2.1.0") {
		t.Errorf("$schema = %q, want the 2.1.0 schema URI", s)
	}
	runs, _ := log["runs"].([]any)
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "paralint" {
		t.Errorf("driver name = %v, want paralint", driver["name"])
	}
	rules, _ := driver["rules"].([]any)
	if len(rules) != len(Analyzers()) {
		t.Errorf("driver lists %d rules, want %d", len(rules), len(Analyzers()))
	}
	ruleIDs := make(map[string]bool)
	for _, r := range rules {
		rm := r.(map[string]any)
		id, _ := rm["id"].(string)
		if id == "" {
			t.Error("rule with empty id")
		}
		if _, ok := rm["shortDescription"].(map[string]any)["text"].(string); !ok {
			t.Errorf("rule %s missing shortDescription.text", id)
		}
		ruleIDs[id] = true
	}
	results, _ := run["results"].([]any)
	if len(results) != len(diags) {
		t.Fatalf("got %d results, want %d", len(results), len(diags))
	}
	for i, r := range results {
		rm := r.(map[string]any)
		id, _ := rm["ruleId"].(string)
		if !ruleIDs[id] {
			t.Errorf("result %d ruleId %q not in driver rules", i, id)
		}
		if lvl, _ := rm["level"].(string); lvl != "error" {
			t.Errorf("result %d level = %q, want error", i, lvl)
		}
		if _, ok := rm["message"].(map[string]any)["text"].(string); !ok {
			t.Errorf("result %d missing message.text", i)
		}
		locs, _ := rm["locations"].([]any)
		if len(locs) != 1 {
			t.Fatalf("result %d has %d locations, want 1", i, len(locs))
		}
		phys := locs[0].(map[string]any)["physicalLocation"].(map[string]any)
		uri, _ := phys["artifactLocation"].(map[string]any)["uri"].(string)
		if uri == "" || strings.Contains(uri, "\\") {
			t.Errorf("result %d artifact uri %q invalid", i, uri)
		}
		if line, _ := phys["region"].(map[string]any)["startLine"].(float64); line < 1 {
			t.Errorf("result %d startLine %v < 1", i, line)
		}
	}
}

// TestRepoIsClean is the enforcement test: the whole repository — test
// files included — must be free of paralint findings under every
// analyzer. It is what makes `go test ./...` (tier-1) fail the same way
// `make lint` and CI fail when a regression lands.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	diags, typeErrs, err := Analyze(filepath.Join("..", ".."), []string{"./..."}, Analyzers())
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, terr := range typeErrs {
		t.Fatalf("type error: %v", terr)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("fix the findings or annotate deliberate exceptions with //paralint:allow <rule> <reason>")
	}
}

// TestAnalyzeReportsUnusedAllow pins the driver's report of stale
// suppressions: of the fixture's //paralint:allow directives, the one that
// hides a determinism finding is silent, the errdiscipline one, which hides
// nothing, is a finding at the directive, and the two whose first word names
// no rule (a deleted rule, a typo) are directive findings there.
func TestAnalyzeReportsUnusedAllow(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks packages")
	}
	diags, _, err := Analyze(filepath.Join("..", ".."), []string{"./internal/lint/testdata/deadallow"}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	file, err := filepath.Abs(filepath.Join("testdata", "deadallow", "deadallow.go"))
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, map[string][]byte{file: src}, diags)
	unknown := 0
	for _, d := range diags {
		if strings.Contains(d.Message, "names no rule") {
			unknown++
			if d.Category != CategoryDirective {
				t.Errorf("%s: category %q, want %q", d, d.Category, CategoryDirective)
			}
		}
	}
	if unknown != 2 {
		t.Errorf("got %d findings for allows naming no rule, want 2", unknown)
	}
}

// TestAnalyzeMatchesSequentialRun pins that the parallel fact-propagating
// driver and a by-hand sequential run agree — same findings, same order —
// so golden tests exercised through Run stay faithful to what CI enforces
// through Analyze.
func TestAnalyzeMatchesSequentialRun(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module twice")
	}
	first, _, err := Analyze(filepath.Join("..", ".."), []string{"./..."}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := Analyze(filepath.Join("..", ".."), []string{"./..."}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Errorf("Analyze is not deterministic across runs:\nfirst:  %v\nsecond: %v", first, second)
	}
}

// TestAllowParsing pins the directive grammar: rule list up front, free-form
// reason after. A directive whose first word is not a rule, such as
// seedflow, names no rule (TestAnalyzeReportsUnusedAllow pins that the
// driver reports it).
func TestAllowParsing(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{" determinism", []string{"determinism"}},
		{" determinism, floatcompare reason text", []string{"determinism", "floatcompare"}},
		{" all because everything here is deliberate", []string{"all"}},
		{" floatcompare exact tie collapsing", []string{"floatcompare"}},
		{" seedflow laundered clock", nil},
		{" not-a-rule determinism", nil},
		{"", nil},
	}
	for _, c := range cases {
		got := parseAllowRules(c.in)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("parseAllowRules(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLockOrder(t *testing.T) {
	runGolden(t, LockOrder, "lockorder", "paratune/internal/harmony")
}

// TestLockOrderCrossPackageCycle seeds a two-lock inversion that spans a
// package boundary: the dependency's Add acquires DB.Mu (exported as a
// LockSet fact), the importer calls it under cache.mu, and the importer also
// takes the locks in the opposite order. Only the whole-program graph —
// edges from both packages plus the imported fact — shows the cycle.
func TestLockOrderCrossPackageCycle(t *testing.T) {
	dep := loadTestdata(t, "lockorder_dep", "paratune/internal/measuredb", nil)
	use := loadTestdata(t, "lockorder_use", "paratune/internal/harmony",
		map[string]*Package{"paratune/internal/measuredb": dep})
	srcs := make(map[string][]byte)
	for name, b := range dep.Src {
		srcs[name] = b
	}
	for name, b := range use.Src {
		srcs[name] = b
	}
	diags := Run([]*Package{dep, use}, []*Analyzer{LockOrder})
	checkWants(t, srcs, diags)
	if len(diags) == 0 {
		t.Fatalf("cross-package lock cycle produced no findings; LockSet fact did not cross the package boundary")
	}
}

func TestCtxFlow(t *testing.T) {
	runGolden(t, CtxFlow, "ctxflow", "paratune/internal/harmony")
}

// TestChanFlow pins that ctxflow reports the channel-flow hazards: a send
// with no receiver, a range over a never-closed channel and an
// uncancellable select under a held lock.
func TestChanFlow(t *testing.T) {
	runGolden(t, CtxFlow, "chanflow", "paratune/internal/harmony")
}

// TestCtxFlowScope checks the rule is silent outside harmony/chaos/feddb,
// no matter what the code does.
func TestCtxFlowScope(t *testing.T) {
	pkg := loadTestdata(t, "ctxflow", "paratune/internal/stats", nil)
	if diags := Run([]*Package{pkg}, []*Analyzer{CtxFlow}); len(diags) != 0 {
		t.Errorf("ctxflow fired outside its package scope: %v", diags)
	}
}

// TestCtxFlowFactPropagation pins the cross-package direction: an
// out-of-scope helper that parks uncancellably is reported at its call site
// in a scoped package, via the imported CtxAware fact.
func TestCtxFlowFactPropagation(t *testing.T) {
	dep := loadTestdata(t, "ctxflow_dep", "paratune/internal/stats", nil)
	use := loadTestdata(t, "ctxflow_use", "paratune/internal/harmony",
		map[string]*Package{"paratune/internal/stats": dep})
	srcs := make(map[string][]byte)
	for name, b := range dep.Src {
		srcs[name] = b
	}
	for name, b := range use.Src {
		srcs[name] = b
	}
	diags := Run([]*Package{dep, use}, []*Analyzer{CtxFlow})
	checkWants(t, srcs, diags)
	if len(diags) == 0 {
		t.Fatalf("fact propagation produced no findings; CtxAware fact did not cross the package boundary")
	}
}

func TestAtomics(t *testing.T) {
	runGolden(t, Atomics, "atomics", "paratune/internal/harmony")
}

// TestAnalyzerPanicIsSurfaced pins the driver contract: a panicking
// analyzer fails the run with an error naming the analyzer and the package,
// instead of silently dropping the package's findings.
func TestAnalyzerPanicIsSurfaced(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks packages")
	}
	boom := &Analyzer{Name: "boom", Doc: "always panics", Run: func(*Pass) { panic("kaboom") }}
	_, _, err := Analyze(filepath.Join("..", ".."), []string{"./internal/space"}, []*Analyzer{boom})
	if err == nil {
		t.Fatalf("panicking analyzer produced no error")
	}
	for _, want := range []string{"boom", "kaboom", "paratune/internal/space"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
