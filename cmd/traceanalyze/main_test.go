package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"paratune/internal/event"
)

// childEnv makes the test binary run traceanalyze's main instead of the
// tests, so a test can check the command's output and exit status.
const childEnv = "TRACEANALYZE_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestReadColumnCSV(t *testing.T) {
	in := "step,t\n1,2.5\n2,3.5\n"
	tr, err := readColumn(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.data) != 2 || tr.data[0] != 2.5 || tr.data[1] != 3.5 {
		t.Errorf("data = %v", tr.data)
	}
	if tr.db.hits != 0 || tr.db.misses != 0 {
		t.Errorf("CSV input produced db counts %+v", tr.db)
	}
}

func TestReadColumnJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := event.NewJSONL(&buf)
	j.Record(event.RunStart{Mode: "sync", Algorithm: "pro"})
	j.Record(event.StepTime{Step: 1, T: 2.5})
	j.Record(event.BatchEvaluated{Points: 4, VTime: 2.5})
	j.Record(event.StepTime{Step: 2, T: 3.5})
	j.Record(event.RunEnd{Mode: "sync"})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	// -col is ignored for JSONL; only step_time events contribute samples.
	tr, err := readColumn(&buf, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.data) != 2 || tr.data[0] != 2.5 || tr.data[1] != 3.5 {
		t.Errorf("data = %v", tr.data)
	}
}

func TestReadColumnJSONLCountsDBTraffic(t *testing.T) {
	var buf bytes.Buffer
	j := event.NewJSONL(&buf)
	j.Record(event.RunStart{Mode: "sync", Algorithm: "pro"})
	j.Record(event.DBMiss{Config: "(1,2)", Count: 0})
	j.Record(event.StepTime{Step: 1, T: 2.5})
	j.Record(event.DBHit{Config: "(1,2)", Value: 2.5, Count: 3})
	j.Record(event.DBHit{Config: "(3,4)", Value: 1.5, Count: 3})
	j.Record(event.DBSnapshot{Configs: 2, Observations: 6})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	tr, err := readColumn(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.data) != 1 {
		t.Errorf("data = %v", tr.data)
	}
	if tr.db.hits != 2 || tr.db.misses != 1 {
		t.Errorf("db counts = %+v, want 2 hits 1 miss", tr.db)
	}
	line, ok := hitRateLine(tr.db)
	if !ok || !strings.Contains(line, "2 hits / 3 lookups") || !strings.Contains(line, "66.7%") {
		t.Errorf("hit-rate line = %q", line)
	}
	if _, ok := hitRateLine(dbCounts{}); ok {
		t.Error("empty counts should render no line")
	}
}

func TestReadColumnJSONLSkipsMalformed(t *testing.T) {
	in := `{"seq":1,"kind":"step_time","event":{"step":1,"t":1.5}}
{not json}
{"seq":2,"kind":"iteration","event":{"iter":1}}
{"seq":3,"kind":"step_time","event":{"step":2,"t":2.5}}
`
	tr, err := readColumn(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.data) != 2 || tr.data[0] != 1.5 || tr.data[1] != 2.5 {
		t.Errorf("data = %v", tr.data)
	}
}

func TestReportRuns(t *testing.T) {
	data := make([]float64, 100)
	for i := range data {
		data[i] = 1 + float64(i%7)*0.3
	}
	var out bytes.Buffer
	if err := report(&out, data, 5, 10, 0.2); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"samples:", "quantiles:", "pdf", "autocorrelation", "running mean"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestWireSummary pins the batching summary on a synthetic trace: frames,
// grants and item classes are summed across sessions, and the summary is
// the one batching line.
func TestWireSummary(t *testing.T) {
	var buf bytes.Buffer
	j := event.NewJSONL(&buf)
	j.Record(event.RunStart{Mode: "sync", Algorithm: "pro"})
	j.Record(event.BatchFetch{Session: "s", Requested: 16, Granted: 12})
	j.Record(event.BatchReport{Session: "s", Items: 1030, Accepted: 1020, Rejected: 4, Refused: 6})
	j.Record(event.BatchReport{Session: "t", Items: 8, Accepted: 8})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	tr, err := readColumn(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	tr.wires.report(&out)
	want := "batching: 1 fetchn frame(s) granting 12 candidate(s), 2 reportn frame(s) carrying 1038 measurement(s) (1028 accepted, 4 rejected, 6 refused)\n"
	if out.String() != want {
		t.Errorf("wire summary:\n got %q\nwant %q", out.String(), want)
	}
	out.Reset()
	(&wireCounts{}).report(&out)
	if out.Len() != 0 {
		t.Errorf("a trace without batching events rendered a wire summary %q", out.String())
	}
}

// TestShortEventTraceSummarises runs the command on the event trace a
// harmonyd serving a single-op client writes: session and iteration events,
// no step_time. It prints the too-few-samples line and exits 0; plain input
// with too few samples still fails.
func TestShortEventTraceSummarises(t *testing.T) {
	var buf bytes.Buffer
	j := event.NewJSONL(&buf)
	j.Record(event.Session{Session: "gs2", Phase: "registered"})
	j.Record(event.Iteration{Session: "gs2", Iter: 1, Step: "reflect", Best: []float64{32, 16, 0.05}, BestValue: 2.5})
	j.Record(event.Session{Session: "gs2", Phase: "converged"})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func(name string, data []byte) (string, error) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], "-in", path)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	out, err := run("trace.jsonl", buf.Bytes())
	if err != nil {
		t.Fatalf("traceanalyze on a short event trace: %v\n%s", err, out)
	}
	if want := "(0 step samples — too few for variability diagnostics)\n"; out != want {
		t.Errorf("output %q, want %q", out, want)
	}
	if out, err := run("short.csv", []byte("1.5\n2.5\n")); err == nil {
		t.Errorf("plain input with 2 samples exited 0:\n%s", out)
	}
}
