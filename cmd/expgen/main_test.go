package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"paratune/internal/experiment"
)

// childEnv makes the test binary run expgen's main instead of the tests, so
// the end-to-end tests drive the real command (flags, output files, exit
// status) without building a separate binary.
const childEnv = "EXPGEN_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCmd runs the command with args and returns its stdout and stderr and
// its exit error.
func runCmd(args ...string) (string, string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// -list prints every registered figure id, one per line, in registry order.
func TestListNamesEveryFigure(t *testing.T) {
	out, stderr, err := runCmd("-list")
	if err != nil {
		t.Fatalf("expgen -list: %v\n%s", err, stderr)
	}
	var want []string
	for _, e := range experiment.Registry() {
		want = append(want, e.ID)
	}
	if got := strings.Fields(out); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list printed %q, want %q", got, want)
	}
}

// One figure regenerated at the committed seed matches results/ byte for
// byte.
func TestFigureMatchesCommittedResults(t *testing.T) {
	dir := t.TempDir()
	if _, stderr, err := runCmd("-fig", "fig2", "-seed", "42", "-out", dir); err != nil {
		t.Fatalf("expgen -fig fig2: %v\n%s", err, stderr)
	}
	for _, name := range []string{"fig2.csv", "fig2.txt"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from results/%s", name, name)
		}
	}
}

// An unknown figure id fails the command with a non-zero exit status.
func TestUnknownFigureExitsNonZero(t *testing.T) {
	_, stderr, err := runCmd("-fig", "no-such-figure", "-out", t.TempDir())
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("expgen -fig no-such-figure: err = %v, want a non-zero exit", err)
	}
	if !strings.Contains(stderr, "no-such-figure") {
		t.Errorf("stderr does not name the unknown figure:\n%s", stderr)
	}
}
