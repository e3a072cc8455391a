package main

import (
	"bytes"
	"strings"
	"testing"

	"paratune/internal/event"
)

func TestReadColumnCSV(t *testing.T) {
	in := "step,t\n1,2.5\n2,3.5\n"
	data, db, _, _, err := readColumn(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 2 || data[0] != 2.5 || data[1] != 3.5 {
		t.Errorf("data = %v", data)
	}
	if db.hits != 0 || db.misses != 0 {
		t.Errorf("CSV input produced db counts %+v", db)
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
	data, _, _, _, err := readColumn(&buf, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 2 || data[0] != 2.5 || data[1] != 3.5 {
		t.Errorf("data = %v", data)
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
	data, db, _, _, err := readColumn(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 1 {
		t.Errorf("data = %v", data)
	}
	if db.hits != 2 || db.misses != 1 {
		t.Errorf("db counts = %+v, want 2 hits 1 miss", db)
	}
	line, ok := hitRateLine(db)
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
	data, _, _, _, err := readColumn(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 2 || data[0] != 1.5 || data[1] != 2.5 {
		t.Errorf("data = %v", data)
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
// grants and item classes are summed across both codecs, and the summary is
// the one batching line.
func TestWireSummary(t *testing.T) {
	var buf bytes.Buffer
	j := event.NewJSONL(&buf)
	j.Record(event.RunStart{Mode: "sync", Algorithm: "pro"})
	j.Record(event.BatchFetch{Session: "s", Requested: 16, Granted: 12, Wire: "binary"})
	j.Record(event.BatchReport{Session: "s", Items: 1030, Accepted: 1020, Rejected: 4, Refused: 6, Wire: "binary"})
	j.Record(event.BatchReport{Session: "t", Items: 8, Accepted: 8, Wire: "json"})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	_, _, _, wires, err := readColumn(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if !wires.report(&out) {
		t.Fatal("wire summary reported nothing")
	}
	want := "batching: 1 fetchn frame(s) granting 12 candidate(s), 2 reportn frame(s) carrying 1038 measurement(s) (1028 accepted, 4 rejected, 6 refused) [2 binary + 1 json]\n"
	if out.String() != want {
		t.Errorf("wire summary:\n got %q\nwant %q", out.String(), want)
	}
	if (&wireCounts{}).report(&out) {
		t.Error("a trace without batching events rendered a wire summary")
	}
}
