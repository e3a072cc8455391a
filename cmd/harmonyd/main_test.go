package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"syscall"
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
	head  []string    // stdout before the listening line
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
			} else {
				d.head = append(d.head, line)
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

// workerPid parses the supervisor's "worker pid N up" line.
func workerPid(line string) (int, bool) {
	var pid int
	_, err := fmt.Sscanf(line, "harmonyd[supervisor]: worker pid %d up", &pid)
	return pid, err == nil
}

// harmonyd -supervise end to end: the supervisor restarts a worker killed
// with SIGKILL, which logs a new worker pid and listens again, and SIGINT to
// the supervisor ends both with exit status 0. The supervisor logs a
// worker's pid only after starting it, so on a loaded host the worker's
// listening line may come first: the test waits for both, in either order.
func TestSuperviseRestartsKilledWorker(t *testing.T) {
	var workers []int
	t.Cleanup(func() { // after startDaemon's own cleanup has killed the supervisor
		for _, pid := range workers {
			_ = syscall.Kill(pid, syscall.SIGKILL)
		}
	})
	d := startDaemon(t, "-supervise", "-max-restarts", "3")
	for _, line := range d.head {
		if pid, ok := workerPid(line); ok {
			workers = append(workers, pid)
		}
	}
	deadline := time.After(30 * time.Second)
	// next returns the daemon's next line after the listening one.
	next := func(waiting string) string {
		t.Helper()
		select {
		case line, ok := <-d.lines:
			if !ok {
				t.Fatalf("supervisor exited while %s", waiting)
			}
			t.Log(line)
			return line
		case <-deadline:
			t.Fatalf("timed out while %s", waiting)
			return ""
		}
	}
	for len(workers) == 0 {
		if pid, ok := workerPid(next("waiting for the first worker's pid")); ok {
			workers = append(workers, pid)
		}
	}
	if len(workers) != 1 {
		t.Fatalf("supervisor logged %d worker pids before the first worker listened, want 1: %q", len(workers), d.head)
	}
	if err := syscall.Kill(workers[0], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	// The first worker's listening line was read by startDaemon, so the
	// next one is the restarted worker's.
	for relistened := false; len(workers) < 2 || !relistened; {
		line := next("waiting for the killed worker to be restarted")
		if pid, ok := workerPid(line); ok {
			workers = append(workers, pid)
		} else if strings.HasPrefix(line, "harmonyd listening on ") {
			relistened = true
		}
	}
	if len(workers) != 2 {
		t.Fatalf("supervisor started %d workers, want 2: %v", len(workers), workers)
	}
	if workers[1] == workers[0] {
		t.Fatalf("restarted worker reuses pid %d", workers[0])
	}
	d.stop(t)
	if err := syscall.Kill(workers[1], 0); !errors.Is(err, syscall.ESRCH) {
		t.Errorf("worker %d still exists after the supervisor exited (kill -0: %v)", workers[1], err)
	}
}

// The worker's argument list keeps every flag but the supervision ones, in
// each spelling the flag package accepts.
func TestWorkerArgsStripsSupervision(t *testing.T) {
	in := []string{
		"-addr", ":7779", "-supervise", "--supervise", "-supervise=true", "--supervise=false",
		"-max-restarts", "3", "--max-restarts", "4", "-max-restarts=5", "--max-restarts=6",
		"-db", "dir",
	}
	want := []string{"-addr", ":7779", "-db", "dir"}
	if got := workerArgs(in); !reflect.DeepEqual(got, want) {
		t.Errorf("workerArgs(%q) = %q, want %q", in, got, want)
	}
}
