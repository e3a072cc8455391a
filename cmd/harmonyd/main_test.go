package main

import (
	"bufio"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"paratune/internal/harmony"
	"paratune/internal/objective"
	"paratune/internal/space"
)

// childEnv makes the test binary run harmonyd's main instead of the tests,
// so the end-to-end test drives the real command (flags, -db wiring,
// SIGINT shutdown) without building a separate binary.
const childEnv = "HARMONYD_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one harmonyd process started by startDaemon.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	lines chan string // stdout after the listening line; closed at EOF
}

// startDaemon runs harmonyd on an ephemeral loopback port with args and
// waits for its listening line.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, lines: make(chan string, 64)}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			_ = d.cmd.Process.Kill()
			_ = d.cmd.Wait()
		}
	})
	go func() {
		defer close(d.lines)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			d.lines <- sc.Text()
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	deadline := time.After(30 * time.Second)
	for d.addr == "" {
		select {
		case line, ok := <-d.lines:
			if !ok {
				t.Fatal("harmonyd exited before listening")
			}
			t.Log(line)
			if rest, found := strings.CutPrefix(line, "harmonyd listening on "); found {
				d.addr, _, _ = strings.Cut(rest, " ")
			}
		case <-deadline:
			t.Fatal("harmonyd did not report its listening address")
		}
	}
	return d
}

// stop interrupts the daemon, which shuts down gracefully (closing its
// measurement database), and waits for it to exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	for line := range d.lines {
		t.Log(line)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("harmonyd exit: %v", err)
	}
}

// tune registers session on the daemon and answers every fetched
// candidate with f's noise-free value until the session converges. It
// returns the converged best point and how many measurements it reported.
func tune(t *testing.T, addr, session string, f objective.Function) (space.Point, int) {
	t.Helper()
	cl, err := harmony.DialWith(addr, harmony.DialOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sp := objective.GS2Space()
	params := make([]space.Parameter, sp.Dim())
	for i := range params {
		params[i] = sp.Param(i)
	}
	if err := cl.Register(session, params); err != nil {
		t.Fatal(err)
	}
	reported := 0
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		fr, err := cl.Fetch(session)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Converged {
			best, _, conv, err := cl.Best(session)
			if err != nil || !conv {
				t.Fatalf("Best after convergence: converged %v, %v", conv, err)
			}
			return best, reported
		}
		if fr.Tag == 0 {
			time.Sleep(time.Millisecond) // between batches
			continue
		}
		if err := cl.Report(session, fr.Tag, f.Eval(fr.Point)); err != nil {
			t.Fatal(err)
		}
		reported++
	}
	t.Fatalf("session %q did not converge", session)
	return nil, 0
}

// harmonyd -db end to end: a session tuned cold persists its measurements;
// a harmonyd restarted on the same directory replays them and tunes a new
// session to the same best point without asking the client to measure
// anything.
func TestDBWarmStartAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	f := objective.GenerateGS2(objective.GS2Config{Seed: 1})

	d := startDaemon(t, "-db", dir)
	coldBest, coldReports := tune(t, d.addr, "cold", f)
	d.stop(t)
	if coldReports == 0 {
		t.Fatal("cold session reported no measurements")
	}

	d = startDaemon(t, "-db", dir)
	warmBest, warmReports := tune(t, d.addr, "warm", f)
	d.stop(t)
	if warmReports != 0 {
		t.Fatalf("warm session reported %d measurements, want 0", warmReports)
	}
	if !warmBest.Equal(coldBest) {
		t.Fatalf("warm best %v, cold best %v", warmBest, coldBest)
	}
	t.Logf("cold: %d measurements, best %v; warm: 0 measurements", coldReports, coldBest)
}
