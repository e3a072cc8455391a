package experiment

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"paratune/internal/event"
)

// forEach flushes each job's events in index order however the jobs finish,
// hands jobs a nil recorder without a trace, runs n < pool width, and
// returns the lowest-index error with the stream cut after that job.
func TestForEach(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	mark := func(i int) []event.Event {
		return []event.Event{event.RunStart{Budget: i}, event.RunEnd{Iterations: i}}
	}

	// Two jobs on a pool of four; job 0 finishes only after job 1 has.
	var mem event.Memory
	done1 := make(chan struct{})
	err := forEach(Config{Trace: &mem}, 2, func(i int, rec event.Recorder) error {
		if i == 0 {
			<-done1
		}
		for _, e := range mark(i) {
			rec.Record(e)
		}
		if i == 1 {
			close(done1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := append(mark(0), mark(1)...); !reflect.DeepEqual(mem.Events(), want) {
		t.Fatalf("flushed %v, want %v", mem.Events(), want)
	}

	if err := forEach(Config{}, 3, func(_ int, rec event.Recorder) error {
		if rec != nil {
			return errors.New("recorder without a trace")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Jobs 2 and 5 fail, job 5 first in time: job 2's error wins, and the
	// trace ends with job 2's events, as a serial loop's would.
	mem = event.Memory{}
	failed5 := make(chan struct{})
	err = forEach(Config{Trace: &mem}, 8, func(i int, rec event.Recorder) error {
		for _, e := range mark(i) {
			rec.Record(e)
		}
		switch i {
		case 2:
			<-failed5
			return errors.New("job 2")
		case 5:
			close(failed5)
			return errors.New("job 5")
		}
		return nil
	})
	if err == nil || err.Error() != "job 2" {
		t.Fatalf("error %v, want job 2's", err)
	}
	var want []event.Event
	for i := 0; i <= 2; i++ {
		want = append(want, mark(i)...)
	}
	if !reflect.DeepEqual(mem.Events(), want) {
		t.Fatalf("flushed %v, want jobs 0..2 only", mem.Events())
	}
}

// streamRecorder hashes a figure's JSONL event stream and checks that its
// run_start/run_end events pair up. Like the benchmark's counters it is not
// safe for concurrent use; an overlapping Record call is counted, and under
// -race it is also a reported data race.
type streamRecorder struct {
	h        hash.Hash
	jsonl    *event.JSONL
	inFlight atomic.Bool
	overlaps atomic.Int32
	open     int // run_start events not yet closed
	runs     int // run_end events that closed a run
	badEnd   bool
}

func newStreamRecorder() *streamRecorder {
	h := sha256.New()
	return &streamRecorder{h: h, jsonl: event.NewJSONL(h)}
}

func (r *streamRecorder) Record(e event.Event) {
	if r.inFlight.Swap(true) {
		r.overlaps.Add(1)
		return
	}
	defer r.inFlight.Store(false)
	r.jsonl.Record(e)
	switch e.(type) {
	case event.RunStart:
		r.open++
	case event.RunEnd:
		if r.open == 0 {
			r.badEnd = true
			return
		}
		r.open--
		r.runs++
	}
}

// figureRun is what one figure produced: its CSV rows, bit for bit, and the
// digest of its event stream.
type figureRun struct {
	rows   [][]uint64
	stream string
	rec    *streamRecorder
}

func runTraced(t *testing.T, id string) figureRun {
	t.Helper()
	rec := newStreamRecorder()
	f, err := Run(id, Config{Seed: 42, Quick: true, Trace: rec})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if err := rec.jsonl.Err(); err != nil {
		t.Fatalf("%s: trace: %v", id, err)
	}
	if n := rec.overlaps.Load(); n > 0 {
		t.Fatalf("%s: the trace recorder was called concurrently %d times", id, n)
	}
	run := figureRun{stream: fmt.Sprintf("%x", rec.h.Sum(nil)), rec: rec}
	for _, row := range f.CSVRows {
		bits := make([]uint64, len(row))
		for j, v := range row {
			bits[j] = math.Float64bits(v)
		}
		run.rows = append(run.rows, bits)
	}
	return run
}

// Replications run on a GOMAXPROCS-wide pool; the figures and their event
// streams must not depend on the width.
func TestFiguresIndependentOfGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, e := range Registry() {
		runtime.GOMAXPROCS(1)
		serial := runTraced(t, e.ID)
		runtime.GOMAXPROCS(4)
		wide := runTraced(t, e.ID)
		if !reflect.DeepEqual(serial.rows, wide.rows) {
			t.Errorf("%s: CSV rows differ between GOMAXPROCS 1 and 4", e.ID)
		}
		if serial.stream != wide.stream {
			t.Errorf("%s: event stream differs between GOMAXPROCS 1 and 4", e.ID)
		}
	}
}

// Config.Trace receives every tuning run a figure performs: each tuning
// figure emits properly paired run_start/run_end events, and the figures
// that run no tuning emit none.
func TestEveryTuningFigureTraces(t *testing.T) {
	untuned := map[string]bool{
		"fig2": true, "fig3": true, "fig4": true, "fig5": true, "fig6": true, "fig7": true, "fig8": true,
		"ablation-estimators": true,
	}
	for _, e := range Registry() {
		r := runTraced(t, e.ID).rec
		switch {
		case r.badEnd || r.open != 0:
			t.Errorf("%s: unpaired run_start/run_end (%d left open, stray end %v)", e.ID, r.open, r.badEnd)
		case untuned[e.ID] && r.runs != 0:
			t.Errorf("%s: runs no tuning but traced %d runs", e.ID, r.runs)
		case !untuned[e.ID] && r.runs == 0:
			t.Errorf("%s: traced no tuning runs", e.ID)
		}
	}
}
