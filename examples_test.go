package paratune_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// goldenExamples are the examples whose output is pinned, networktuning
// through its filter below. The other two are not pinned: chaos prints what
// goroutine scheduling decides, and realtuning measures wall time.
var goldenExamples = []string{
	"adaptivek", "checkpoint", "comparealgos", "faulttolerance",
	"gs2tuning", "heavytail", "networktuning", "quickstart", "stenciltuning",
}

// goldenLines names, for an example only part of whose output is
// deterministic, the prefixes of the lines that are pinned; the rest are
// dropped before the comparison. networktuning's clients and wall time
// follow goroutine scheduling, but each sample's noise is keyed by its
// slot, so the best configuration and the server's estimate do not.
var goldenLines = map[string][]string{
	"networktuning": {"best config ", "server estimate "},
}

// pinnedLines keeps the lines of out that start with one of prefixes.
func pinnedLines(out []byte, prefixes []string) []byte {
	var kept []byte
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		for _, p := range prefixes {
			if bytes.HasPrefix(line, []byte(p)) {
				kept = append(kept, line...)
				break
			}
		}
	}
	return kept
}

// TestExamplesGolden builds each pinned example once and pins its standard
// output, or the lines goldenLines keeps of it, against
// testdata/examples/<name>.golden. An intended change of output is re-pinned
// by running the example and replacing its golden file with those lines.
func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the example programs")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the examples with")
	}
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, name := range goldenExamples {
		args = append(args, "./examples/"+name)
	}
	if out, err := exec.Command(goTool, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range goldenExamples {
		t.Run(name, func(t *testing.T) {
			golden := filepath.Join("testdata", "examples", name+".golden")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Dir = t.TempDir()
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			if prefixes, ok := goldenLines[name]; ok {
				got = pinnedLines(got, prefixes)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s output differs from %s:\n--- got\n%s--- want\n%s", name, golden, got, want)
			}
		})
	}
}
