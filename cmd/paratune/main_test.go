package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// childEnv makes the test binary run paratune's main instead of the tests,
// so the end-to-end tests drive the real command (flags, trace file, -db
// wiring) without building a separate binary.
const childEnv = "PARATUNE_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCmd runs the command with args and returns its stdout.
func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("paratune %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return string(out)
}

// Two runs with the same seed write byte-identical event traces and print
// byte-identical summaries.
func TestSeededRunsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	var outs, traces [2][]byte
	for i := range outs {
		path := filepath.Join(dir, "trace"+string(rune('a'+i))+".jsonl")
		outs[i] = []byte(runCmd(t, "-seed", "7", "-rho", "0.3", "-budget", "200", "-trace", path))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = b
	}
	if len(traces[0]) == 0 || !bytes.Contains(outs[0], []byte("best config:")) {
		t.Fatalf("run wrote a %d-byte trace and printed:\n%s", len(traces[0]), outs[0])
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Error("same-seed runs wrote different traces")
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("same-seed runs printed different summaries:\n%s\n---\n%s", outs[0], outs[1])
	}
}

// A second run on the same -db store is served entirely from the store.
func TestDBRerunMeasuresNothing(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	args := []string{"-surface", "sphere", "-rho", "0.3", "-samples", "3", "-budget", "120", "-seed", "7", "-db", store}
	cold := runCmd(t, args...)
	if !strings.Contains(cold, "measurement db:") || strings.Contains(cold, ", 0 measured") {
		t.Fatalf("cold run measured nothing:\n%s", cold)
	}
	if warm := runCmd(t, args...); !strings.Contains(warm, ", 0 measured") {
		t.Errorf("rerun on the same store measured again:\n%s", warm)
	}
}
