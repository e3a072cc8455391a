// Command paralint is the project's vet-style static analysis driver. It
// enforces the determinism contract the paper's evaluation depends on (see
// DESIGN.md "Determinism contract & static analysis"). Four of its seven
// rules are syntax-local:
//
//   - determinism: no wall-clock time, crypto/rand, process id or global
//     rand in simulation packages and their tests; no global rand and no
//     wall-clock-seeded RNG sources anywhere
//   - lockdiscipline: mutex-guarded fields are accessed under the lock or
//     behind the ...Locked naming convention
//   - floatcompare: no float ==/!= in rank-ordering and stats code
//   - errdiscipline: no discarded errors at the harmony wire boundary
//
// three enforce the concurrency contract (DESIGN.md "Concurrency
// contract"), the first two following calls across package boundaries
// through typed facts:
//
//   - lockorder: the whole-program lock-acquisition graph is acyclic and
//     respects ranks declared with //paralint:lockrank N on the mutex
//   - ctxflow: blocking channel ops in harmony/chaos/feddb carry a
//     cancellation path (ctx.Done/done-channel/timer arm, buffered send),
//     and a ranged channel is closed somewhere in its package
//   - atomics: no legacy sync/atomic functions; typed atomics only
//
// Goroutine leaks, frame-buffer lifetimes, per-request bounds, hot-path
// allocation counts, the PHWIRE1/PHSYNC1 code tables and event emission are
// pinned by runtime tests or the compiler instead (DESIGN.md "Wire codec
// integrity" and "paralint keep-or-cut audit").
//
// Usage:
//
//	paralint [-rules r1,r2] [-list] [-json|-sarif] [packages]
//
// With no packages, ./... is analysed, including _test.go files. Findings
// print as file:line:col: rule: message; -json emits them as one JSON array
// and -sarif as a SARIF 2.1.0 log for code-scanning upload. Exit status: 0
// clean, 1 findings, 2 load or type-check failure, 3 when any finding is a
// malformed or dangling //paralint:lockrank directive or a //paralint:allow
// that names no rule — an annotation that silently stopped enforcing its
// contract outranks an ordinary finding.
//
// Suppress an individual finding with a trailing (or immediately preceding)
// comment naming the rule and, by convention, the reason:
//
//	//paralint:allow determinism TCP deadlines are genuinely wall-clock
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"paratune/internal/lint"
)

func main() {
	rules := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := flag.Bool("list", false, "list available rules and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	sarifOut := flag.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paralint [-rules r1,r2] [-list] [-json|-sarif] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-20s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *rules != "" {
		analyzers = selectRules(analyzers, *rules)
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "paralint: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, typeErrs, err := lint.Analyze(".", patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paralint:", err)
		os.Exit(2)
	}
	if len(typeErrs) > 0 {
		for _, terr := range typeErrs {
			fmt.Fprintf(os.Stderr, "paralint: %v\n", terr)
		}
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	lint.RelPaths(cwd, diags)

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "paralint:", err)
			os.Exit(2)
		}
	case *sarifOut:
		out, err := lint.SARIF(analyzers, diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paralint:", err)
			os.Exit(2)
		}
		os.Stdout.Write(append(out, '\n'))
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	os.Exit(exitStatus(os.Stderr, diags))
}

// exitStatus reports the process exit code for a set of findings and prints
// the summary line: 0 clean, 1 findings, 3 when any finding is a malformed
// or dangling paralint directive (rot in the annotations that the other
// rules trust must outrank an ordinary finding).
func exitStatus(w io.Writer, diags []lint.Diagnostic) int {
	if len(diags) == 0 {
		return 0
	}
	if bad := directiveRules(diags); len(bad) > 0 {
		fmt.Fprintf(w, "paralint: %d finding(s), including malformed or dangling directive(s) reported by: %s\n",
			len(diags), strings.Join(bad, ", "))
		return 3
	}
	fmt.Fprintf(w, "paralint: %d finding(s)\n", len(diags))
	return 1
}

// directiveRules returns the sorted rule names that reported
// directive-category findings.
func directiveRules(diags []lint.Diagnostic) []string {
	seen := make(map[string]bool)
	for _, d := range diags {
		if d.Category == lint.CategoryDirective {
			seen[d.Rule] = true
		}
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

func selectRules(all []*lint.Analyzer, spec string) []*lint.Analyzer {
	byName := make(map[string]*lint.Analyzer)
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "paralint: unknown rule %q (use -list)\n", name)
			os.Exit(2)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		fmt.Fprintln(os.Stderr, "paralint: -rules selected no rules")
		os.Exit(2)
	}
	return out
}
