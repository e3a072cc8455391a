package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"paratune/internal/lint"
)

func TestExitStatus(t *testing.T) {
	var buf bytes.Buffer
	if got := exitStatus(&buf, nil); got != 0 {
		t.Errorf("exitStatus(no findings) = %d, want 0", got)
	}
	ordinary := []lint.Diagnostic{{Rule: "ctxflow", Message: "x"}}
	buf.Reset()
	if got := exitStatus(&buf, ordinary); got != 1 {
		t.Errorf("exitStatus(ordinary finding) = %d, want 1", got)
	}
	mixed := []lint.Diagnostic{
		{Rule: "ctxflow", Message: "x"},
		{Rule: "lockorder", Message: "malformed lockrank", Category: lint.CategoryDirective},
		{Rule: "lockorder", Message: "dangling lockrank", Category: lint.CategoryDirective},
	}
	buf.Reset()
	if got := exitStatus(&buf, mixed); got != 3 {
		t.Errorf("exitStatus(directive findings) = %d, want 3", got)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "reported by: lockorder\n") {
		t.Errorf("summary %q does not name the directive rule exactly once", out)
	}
}

// TestDirectiveExitOnSelftestFixture runs the real pipeline — load,
// analyze, exit-status decision — over the committed selftest fixture and
// pins that a malformed //paralint:lockrank directive escalates the driver
// to exit status 3 with the offending rule named.
func TestDirectiveExitOnSelftestFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks packages")
	}
	analyzers := selectRules(lint.Analyzers(), "lockorder")
	diags, typeErrs, err := lint.Analyze(filepath.Join("..", ".."),
		[]string{"./internal/lint/testdata/selftest"}, analyzers)
	if err != nil {
		t.Fatalf("analyzing selftest fixture: %v", err)
	}
	if len(typeErrs) > 0 {
		t.Fatalf("type errors in selftest fixture: %v", typeErrs)
	}
	if len(diags) != 1 {
		t.Fatalf("selftest fixture produced %d findings, want 1: %v", len(diags), diags)
	}
	var buf bytes.Buffer
	if got := exitStatus(&buf, diags); got != 3 {
		t.Errorf("exitStatus(selftest findings) = %d, want 3", got)
	}
	if !strings.Contains(buf.String(), "lockorder") {
		t.Errorf("summary %q does not name lockorder", buf.String())
	}
}
