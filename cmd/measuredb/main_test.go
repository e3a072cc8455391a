package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"paratune/internal/feddb"
	"paratune/internal/measuredb"
	"paratune/internal/space"
)

// childEnv makes the test binary run measuredb's main instead of the tests,
// so the tests drive the real command (subcommands, flags, exit status)
// without building a separate binary.
const childEnv = "MEASUREDB_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCmd runs the command with args and returns its stdout, its stderr and
// its exit status.
func runCmd(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		status = exit.ExitCode()
	case err != nil:
		t.Fatalf("measuredb %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errb.String(), status
}

// mustRun runs the command and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, stderr, status := runCmd(t, args...)
	if status != 0 {
		t.Fatalf("measuredb %s: exit %d\n%s", strings.Join(args, " "), status, stderr)
	}
	return out
}

var (
	spaceA = space.MustNew(space.IntParam("x", 0, 8), space.IntParam("y", 0, 8)).String()
	spaceB = space.MustNew(space.IntParam("x", 0, 9), space.IntParam("y", 0, 8)).String()
)

// seedStore writes a store in a new directory under t's temp dir: seed 7,
// the given origin and space, and five observations of three
// configurations. It returns the directory.
func seedStore(t *testing.T, origin, sig string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), origin)
	s, err := measuredb.Open(dir, measuredb.Options{Seed: 7, Origin: origin, Space: sig})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []struct {
		p space.Point
		v float64
	}{
		{space.Point{1, 2}, 0.5}, {space.Point{1, 2}, 0.25}, {space.Point{3, 4}, 1.5},
		{space.Point{1, 2}, 2}, {space.Point{5, 0}, 0.75},
	} {
		s.Observe(o.p, o.v)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestInfo(t *testing.T) {
	dir := seedStore(t, "a", spaceA)
	out := mustRun(t, "info", dir)
	for _, want := range []string{
		"seed:          7\n",
		"space:         " + spaceA + "\n",
		"configs:       3\n",
		"observations:  5\n",
		"wal.db:",
		"best config:   (1,2)  (min 0.25 over 3 observations)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("info output lacks %q:\n%s", want, out)
		}
	}
	if _, stderr, status := runCmd(t, "info"); status != 1 || !strings.Contains(stderr, "want one store directory") {
		t.Errorf("info with no directory: exit %d, stderr %q", status, stderr)
	}
}

// An error from the store reaches stderr behind one "measuredb: " prefix,
// as the command's own errors do.
func TestErrorsCarryOnePrefix(t *testing.T) {
	dir := seedStore(t, "a", spaceA)
	if err := os.WriteFile(filepath.Join(dir, "snapshot.db"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, status := runCmd(t, "info", dir)
	if status != 1 || !strings.HasPrefix(stderr, "measuredb: ") || !strings.Contains(stderr, "snapshot.db") {
		t.Fatalf("info on a store holding snapshot.db: exit %d, stderr %q", status, stderr)
	}
	if n := strings.Count(stderr, "measuredb: "); n != 1 {
		t.Errorf("stderr carries the prefix %d times: %q", n, stderr)
	}
	if _, stderr, _ := runCmd(t, "info"); !strings.HasPrefix(stderr, "measuredb: info: ") {
		t.Errorf("the command's own error lost its prefix: %q", stderr)
	}

	// merge names the source whose store refused the union, and sources
	// bound to different spaces fail before any store merges.
	a := seedStore(t, "a", spaceA)
	diverged := filepath.Join(t.TempDir(), "a")
	s, err := measuredb.Open(diverged, measuredb.Options{Seed: 7, Origin: "a", Space: spaceA})
	if err != nil {
		t.Fatal(err)
	}
	s.Observe(space.Point{7, 7}, 9)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, srcs := range [][]string{{a, diverged}, {a, seedStore(t, "c", spaceB)}} {
		args := append([]string{"merge", "-out", filepath.Join(t.TempDir(), "merged")}, srcs...)
		_, stderr, status := runCmd(t, args...)
		want := "measuredb: merge: " + srcs[1]
		if status != 1 || !strings.HasPrefix(stderr, want) {
			t.Errorf("merge %s: exit %d, stderr %q, want it to start %q", srcs[1], status, stderr, want)
		}
		if n := strings.Count(stderr, "measuredb: "); n != 1 {
			t.Errorf("merge %s: stderr carries the prefix %d times: %q", srcs[1], n, stderr)
		}
	}
}

const wantCSV = `x0,x1,count,min,mean,median,p90
1,2,3,0.25,0.9166666666666666,0.5,1.7000000000000002
3,4,1,1.5,1.5,1.5,1.5
5,0,1,0.75,0.75,0.75,0.75
`

func TestExport(t *testing.T) {
	dir := seedStore(t, "a", spaceA)
	if got := mustRun(t, "export", "-format", "csv", dir); got != wantCSV {
		t.Errorf("csv export:\n%s\nwant:\n%s", got, wantCSV)
	}

	type agg struct {
		Point  []float64 `json:"point"`
		Count  int       `json:"count"`
		Min    float64   `json:"min"`
		Median float64   `json:"median"`
	}
	var aggs []agg
	for _, line := range strings.Split(strings.TrimSpace(mustRun(t, "export", "-format", "jsonl", dir)), "\n") {
		var a agg
		if err := json.Unmarshal([]byte(line), &a); err != nil {
			t.Fatalf("jsonl line %q: %v", line, err)
		}
		aggs = append(aggs, a)
	}
	if len(aggs) != 3 || aggs[0].Count != 3 || aggs[0].Min != 0.25 || aggs[0].Median != 0.5 || aggs[2].Point[0] != 5 {
		t.Errorf("jsonl export: %+v", aggs)
	}

	if _, stderr, status := runCmd(t, "export", "-format", "xml", dir); status != 1 || !strings.Contains(stderr, `unknown format "xml"`) {
		t.Errorf("export -format xml: exit %d, stderr %q", status, stderr)
	}
}

// Compaction rewrites the WAL in place without changing what the store
// holds: the directory keeps one file.
func TestCompact(t *testing.T) {
	dir := seedStore(t, "a", spaceA)
	if out := mustRun(t, "compact", dir); out != "compacted "+dir+": 3 configs, 5 observations\n" {
		t.Errorf("compact printed %q", out)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "wal.db" {
		t.Fatalf("store directory after compact holds %v, want only wal.db", ents)
	}
	if got := mustRun(t, "export", dir); got != wantCSV {
		t.Errorf("export after compact:\n%s\nwant:\n%s", got, wantCSV)
	}
}

// merge unions stores by (origin, seq): a second copy of an origin is all
// duplicates. Sources bound to different spaces conflict, and the failed
// merge leaves no -out store behind.
func TestMerge(t *testing.T) {
	a, b := seedStore(t, "a", spaceA), seedStore(t, "b", spaceA)
	out := filepath.Join(t.TempDir(), "merged")
	got := mustRun(t, "merge", "-out", out, a, b, a)
	want := "merged 3 store(s) into " + out + ": 3 configs, 10 observations\n5 duplicate observations skipped\n"
	if got != want {
		t.Errorf("merge printed %q, want %q", got, want)
	}

	c := seedStore(t, "c", spaceB)
	conflict := filepath.Join(t.TempDir(), "conflict")
	stdout, stderr, status := runCmd(t, "merge", "-out", conflict, a, c)
	if status != 1 || stdout != "" || !strings.Contains(stderr, "is bound to space") {
		t.Errorf("conflicting merge: exit %d, stdout %q, stderr %q", status, stdout, stderr)
	}
	if _, err := os.Stat(conflict); !os.IsNotExist(err) {
		t.Errorf("conflicting merge left %s behind (stat: %v)", conflict, err)
	}
}

// Two stores claiming origin "a" with different histories do not merge: the
// divergence surfaces before -out is created.
func TestMergeRefusesDivergedOrigin(t *testing.T) {
	a := seedStore(t, "a", spaceA)
	other := filepath.Join(t.TempDir(), "a")
	s, err := measuredb.Open(other, measuredb.Options{Seed: 7, Origin: "a", Space: spaceA})
	if err != nil {
		t.Fatal(err)
	}
	s.Observe(space.Point{7, 7}, 9)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "merged")
	stdout, stderr, status := runCmd(t, "merge", "-out", out, a, other)
	if status != 1 || stdout != "" || !strings.Contains(stderr, "origin a diverged") {
		t.Errorf("diverged merge: exit %d, stdout %q, stderr %q", status, stdout, stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("diverged merge left %s behind (stat: %v)", out, err)
	}
}

// serveSync serves store over PHSYNC1 on a loopback listener until the test
// ends and returns the listener's address.
func serveSync(t *testing.T, store *measuredb.Store) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				var magic [len(feddb.SyncMagic)]byte
				if _, err := io.ReadFull(br, magic[:]); err != nil {
					return
				}
				// the serve loop always ends with the client's close
				_ = feddb.ServeConn(conn, br, feddb.ServeOptions{Store: store})
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// sync pulls every frame the peer holds and pushes every frame the local
// store holds; a second round between the converged pair ships nothing.
func TestSync(t *testing.T) {
	dir := seedStore(t, "cli", spaceA)
	peer := measuredb.NewMemory(measuredb.Options{Seed: 7, Origin: "srv", Space: spaceA})
	for i := 0; i < 3; i++ {
		peer.Observe(space.Point{float64(i), 1}, float64(i))
	}
	addr := serveSync(t, peer)

	if got, want := mustRun(t, "sync", dir, addr), "pulled 3, pushed 5, 0 duplicate observations skipped\n"; got != want {
		t.Errorf("first sync printed %q, want %q", got, want)
	}
	if _, obs := peer.Stats(); obs != 8 {
		t.Errorf("peer holds %d observations after sync, want 8", obs)
	}
	if got, want := mustRun(t, "sync", dir, addr), "pulled 0, pushed 0, 0 duplicate observations skipped\n"; got != want {
		t.Errorf("second sync printed %q, want %q", got, want)
	}
	if out := mustRun(t, "info", dir); !strings.Contains(out, "observations:  8\n") {
		t.Errorf("synced store info:\n%s", out)
	}
}
