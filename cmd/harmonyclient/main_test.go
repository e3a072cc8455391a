package main

import (
	"net"
	"os"
	"os/exec"
	"regexp"
	"testing"

	"paratune/internal/harmony"
)

// childEnv makes the test binary run harmonyclient's main instead of the
// tests, so the test drives the real command and its flags without building
// a separate binary.
const childEnv = "HARMONYCLIENT_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runClient serves a fresh in-process server on loopback, runs
// harmonyclient against it with args, and returns the command's output.
func runClient(t *testing.T, args ...string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := harmony.NewServer(harmony.ServerOptions{})
	served := make(chan error, 1)
	go func() { served <- harmony.Serve(l, srv) }()
	defer func() {
		_ = l.Close()
		if err := <-served; err != nil {
			t.Error(err)
		}
		srv.Close()
	}()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", l.Addr().String()}, args...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("harmonyclient %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// convergedLine captures a run's iteration and measurement counts, and its
// elapsed time, the one part of the output that varies between runs.
var convergedLine = regexp.MustCompile(`converged after (\d+) iterations \((\d+) measurements, [^)]*\)`)

// A seeded run is reproducible: two runs print the same session, counts
// and best configuration, and every iteration measured a candidate, so no
// fetch found the session between batches.
func TestSeededRunsRepeat(t *testing.T) {
	args := []string{"-seed", "1", "-rho", "0.3"}
	var outs [2]string
	for i := range outs {
		out := runClient(t, args...)
		m := convergedLine.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("run %d did not converge:\n%s", i, out)
		}
		if m[1] != m[2] {
			t.Errorf("run %d: %s iterations but %s measurements", i, m[1], m[2])
		}
		outs[i] = convergedLine.ReplaceAllString(out, "converged after $1 iterations ($2 measurements)")
	}
	if outs[0] != outs[1] {
		t.Errorf("seeded runs differ:\n%s\n---\n%s", outs[0], outs[1])
	}
}
