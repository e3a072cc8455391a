// Package lint implements paralint, the project's vet-style static
// analysis. The analyzers encode the repo's determinism contract (see
// DESIGN.md "Determinism contract & static analysis"): the paper's §6
// evaluation is a seeded simulation, so every figure is reproducible only if
// the simulator and estimators are bit-deterministic under a fixed seed, and
// trustworthy only if the concurrent harmony server is race- and
// deadlock-free.
//
// Seven rules are enforced. Four are syntax-local:
//
//   - determinism: no wall-clock time, crypto/rand, process id or
//     process-global rand inside simulation packages and their tests; no
//     process-global rand and no wall-clock-seeded RNG sources anywhere.
//   - lockdiscipline: methods of mutex-holding structs must hold the lock
//     when touching guarded fields, or follow the ...Locked convention.
//   - floatcompare: no ==/!= on floats in rank-ordering and stats packages;
//     exact ties must be deliberate.
//   - errdiscipline: no silently discarded errors at the harmony wire
//     boundary.
//
// Three more are the concurrency contract (DESIGN.md "Concurrency
// contract"), the machine-checked precondition for sharding the harmony
// session table; lockorder and ctxflow reason across package boundaries
// through the fact system (see FactBase):
//
//   - lockorder: the whole-program lock-acquisition graph — including
//     acquisitions reached through calls, via LockSet facts — must be
//     acyclic, and must respect ranks declared with //paralint:lockrank.
//   - ctxflow: blocking channel operations in harmony/chaos/feddb
//     must be cancellable (ctx.Done()/done-channel/timer arm, or a provably
//     buffered send), and a ranged channel must be closed in its package;
//     CtxAware facts carry the property across calls.
//   - atomics: no legacy pointer-based sync/atomic functions; the typed
//     atomics make "atomic everywhere" hold by construction.
//
// Goroutine leaks, buffer lifetimes, per-request bounds, hot-path
// allocation counts, the wire code tables and event emission are pinned by
// runtime tests on the sites themselves, or by the compiler, not by rules
// (internal/leakcheck; the sealed event.Event; DESIGN.md "Buffer ownership",
// "Bounded resources", "Wire codec integrity" and "paralint keep-or-cut
// audit").
//
// A finding can be suppressed with a comment on the same line or the line
// immediately above:
//
//	//paralint:allow <rule> [reason...]
//
// The reason text is free-form but encouraged: the escape hatch is for code
// that is genuinely wall-clock (TCP deadlines), genuinely exact (ECDF tie
// collapsing), or genuinely best-effort (error replies on a closing
// connection) — the annotation documents which. A directive whose first
// word names no rule suppresses nothing, and a full Analyze run reports it
// as a directive finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos     token.Position `json:"pos"`
	Rule    string         `json:"rule"`
	Message string         `json:"message"`
	// Category classifies findings beyond the rule name. The one defined
	// category is "directive": a //paralint:lockrank directive that is
	// malformed or binds to nothing. The driver exits with a distinct status
	// for those — a directive that silently stops enforcing its contract is
	// config rot, not a code finding.
	Category string `json:"category,omitempty"`
}

// CategoryDirective marks malformed or dangling paralint directives.
const CategoryDirective = "directive"

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one named rule.
type Analyzer struct {
	Name string
	Doc  string
	// FactTypes lists the fact types the analyzer exports (pointers to
	// zero-valued structs), for documentation and registry purposes.
	FactTypes []Fact
	Run       func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// TestVariant is true when the pass analyzes a package variant that
	// includes _test.go files (in-package or external test package).
	TestVariant bool

	ctx   *pkgContext
	facts *FactBase
	out   *[]Diagnostic
}

// pkgContext is the per-package state shared by every analyzer pass:
// suppression directives and the source map.
type pkgContext struct {
	pkg   *Package
	allow map[string]map[int]map[string]*allowRule // filename -> covered line -> rule
	// unknown holds a directive finding for each //paralint:allow whose
	// first word names no rule: it suppresses nothing.
	unknown []Diagnostic
}

// allowRule is one rule named by a //paralint:allow directive.
type allowRule struct {
	pos  token.Position // the directive comment
	used bool           // it suppressed a finding
}

func newPkgContext(pkg *Package) *pkgContext {
	ctx := &pkgContext{pkg: pkg}
	ctx.allow, ctx.unknown = allowIndex(pkg)
	return ctx
}

// Reportf records a finding at pos unless a //paralint:allow comment
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, "", format, args...)
}

// ReportDirective records a malformed/dangling-directive finding, tagged
// with the "directive" category so the driver can fail with a distinct exit
// status.
func (p *Pass) ReportDirective(pos token.Pos, format string, args ...any) {
	p.report(pos, CategoryDirective, format, args...)
}

func (p *Pass) report(pos token.Pos, category, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressedAt(position) {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		Pos:      position,
		Rule:     p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Category: category,
	})
}

// suppressedAt reports whether a //paralint:allow directive covers the
// position for the running analyzer, and marks the directive used.
// lockorder's finalizer-emitted cycles capture this at record time in each
// edge's Allowed — the per-package allow index is gone by finalize time — so
// a lockorder directive counts as used once it covers an acquisition.
func (p *Pass) suppressedAt(position token.Position) bool {
	rules := p.ctx.allow[position.Filename][position.Line]
	for _, name := range [...]string{p.Analyzer.Name, "all"} {
		if r := rules[name]; r != nil {
			r.used = true
			return true
		}
	}
	return false
}

// unusedAllows reports every directive rule in ran that suppressed no
// finding, and every directive that names no rule: a stale allow hides
// nothing today and would hide the next real finding on its line.
func (ctx *pkgContext) unusedAllows(ran map[string]bool) []Diagnostic {
	out := append([]Diagnostic(nil), ctx.unknown...)
	for _, lines := range ctx.allow {
		for _, rules := range lines {
			for name, r := range rules {
				if !r.used && ran[name] {
					out = append(out, Diagnostic{
						Pos:     r.pos,
						Rule:    name,
						Message: "//paralint:allow " + name + " suppresses no finding; delete it",
					})
				}
			}
		}
	}
	return out
}

// Analyzers returns every paralint rule in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism, LockDiscipline, FloatCompare, ErrDiscipline,
		LockOrder, CtxFlow, Atomics,
	}
}

// Run applies the analyzers to each package in slice order with a fresh
// fact store and returns the surviving findings sorted by position.
// Packages must be ordered dependencies-first for cross-package facts to
// propagate; the parallel Analyze driver guarantees that for whole-module
// runs, and golden tests order their testdata packages by hand.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunWithFacts(NewFactBase(), pkgs, analyzers)
}

// RunWithFacts is Run against an existing fact store, so facts exported by
// an earlier call are visible to a later one. An analyzer panic becomes a
// Go panic naming the analyzer and package (the golden tests run known-good
// analyzers; the repo-wide driver goes through Analyze, which returns the
// failure as an error instead).
func RunWithFacts(fb *FactBase, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		pkgDiags, err := runPackage(fb, pkg, analyzers, nil, false, nil)
		if err != nil {
			panic(err)
		}
		diags = append(diags, pkgDiags...)
	}
	diags = append(diags, finalize(fb, analyzers)...)
	return sortDiags(diags)
}

// finalize runs the whole-program check that needs the complete fact store:
// lockorder's cycle detection over the accumulated acquisition graph. It is
// idempotent (each cycle is reported once per canonical key) so incremental
// RunWithFacts callers may invoke finalize after every batch.
func finalize(fb *FactBase, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		if a == LockOrder {
			out = append(out, lockOrderCycles(fb)...)
		}
	}
	return out
}

// runPackage applies every analyzer to one type-checked package. When ran
// is non-nil, allow directives for the rules in it that suppressed nothing
// are findings too. When onlyFiles is non-nil, findings outside that
// filename set are discarded (used to keep test-variant passes from
// double-reporting non-test files).
// A panicking analyzer is caught and surfaced as an error naming the
// analyzer and the package, so the driver can fail loudly instead of
// silently losing the package's findings.
func runPackage(fb *FactBase, pkg *Package, analyzers []*Analyzer, ran map[string]bool, testVariant bool, onlyFiles map[string]bool) (diags []Diagnostic, err error) {
	ctx := newPkgContext(pkg)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:    a,
			Fset:        pkg.Fset,
			Files:       pkg.Files,
			Pkg:         pkg.Types,
			Info:        pkg.Info,
			TestVariant: testVariant,
			ctx:         ctx,
			facts:       fb,
			out:         &diags,
		}
		if err := runAnalyzer(pass, a); err != nil {
			return nil, err
		}
	}
	if ran != nil {
		diags = append(diags, ctx.unusedAllows(ran)...)
	}
	if onlyFiles == nil {
		return diags, nil
	}
	kept := diags[:0]
	for _, d := range diags {
		if onlyFiles[d.Pos.Filename] {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// runAnalyzer runs one analyzer over one package, converting a panic into
// an error that names both.
func runAnalyzer(pass *Pass, a *Analyzer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("analyzer %s panicked on package %s: %v", a.Name, pass.ctx.pkg.ImportPath, r)
		}
	}()
	a.Run(pass)
	return nil
}

// sortDiags orders findings by (file, line, rule, column) — the order the
// -json and -sarif emitters promise — and collapses exact duplicates
// (nested constructs can report the same defect twice).
func sortDiags(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if diags[i].Rule != diags[j].Rule {
			return diags[i].Rule < diags[j].Rule
		}
		return a.Column < b.Column
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// calleeAnyFunc resolves the function or method a call dispatches to —
// including methods and interface methods, unlike calleeFunc — or nil for
// builtins, conversions, and calls through func values.
func calleeAnyFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

const allowPrefix = "paralint:allow"

func isDirective(comment, prefix string) bool {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	return text == prefix || strings.HasPrefix(text, prefix+" ")
}

// allowIndex maps file -> line -> rules suppressed on that line. A trailing
// comment suppresses its own line; a standalone comment line suppresses the
// line below it. A directive whose first word is not a rule name (a typo,
// or a rule since deleted) suppresses nothing and is returned as a
// directive finding instead.
func allowIndex(pkg *Package) (map[string]map[int]map[string]*allowRule, []Diagnostic) {
	idx := make(map[string]map[int]map[string]*allowRule)
	var unknown []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, allowPrefix)
				rules := parseAllowRules(rest)
				pos := pkg.Fset.Position(c.Pos())
				if len(rules) == 0 {
					first := ""
					if f := strings.Fields(rest); len(f) > 0 {
						first = f[0]
					}
					unknown = append(unknown, Diagnostic{
						Pos:      pos,
						Rule:     "paralint",
						Message:  fmt.Sprintf("//paralint:allow names no rule (first word %q); it suppresses nothing", first),
						Category: CategoryDirective,
					})
					continue
				}
				line := pos.Line
				if standaloneComment(pkg, pos) {
					line++ // the directive covers the next source line
				}
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]*allowRule)
					idx[pos.Filename] = byLine
				}
				set := byLine[line]
				if set == nil {
					set = make(map[string]*allowRule)
					byLine[line] = set
				}
				for _, r := range rules {
					set[r] = &allowRule{pos: pos}
				}
			}
		}
	}
	return idx, unknown
}

// parseAllowRules extracts the rule names at the head of an allow directive;
// everything after the first non-rule token is the free-form reason.
func parseAllowRules(s string) []string {
	known := map[string]bool{"all": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var rules []string
	for _, field := range strings.Fields(s) {
		name := strings.TrimSuffix(field, ",")
		if !known[name] {
			break
		}
		rules = append(rules, name)
	}
	return rules
}

// standaloneComment reports whether only whitespace precedes the comment on
// its source line.
func standaloneComment(pkg *Package, pos token.Position) bool {
	src, ok := pkg.Src[pos.Filename]
	if !ok {
		return false
	}
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return false
	}
	return strings.TrimSpace(string(src[start:pos.Offset])) == ""
}
