package paratune_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// goldenExamples are the examples whose output is deterministic. The other
// three are not pinned: networktuning and chaos print what goroutine
// scheduling decides, and realtuning measures wall time.
var goldenExamples = []string{
	"adaptivek", "checkpoint", "comparealgos", "faulttolerance",
	"gs2tuning", "heavytail", "quickstart", "stenciltuning",
}

// TestExamplesGolden builds each deterministic example once and pins its
// standard output against testdata/examples/<name>.golden. An intended
// change of output is re-pinned by running the example and replacing its
// golden file.
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
			if !bytes.Equal(got, want) {
				t.Errorf("%s output differs from %s:\n--- got\n%s--- want\n%s", name, golden, got, want)
			}
		})
	}
}
