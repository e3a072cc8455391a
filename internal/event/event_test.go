package event

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestKindsMatchConstants(t *testing.T) {
	cases := []struct {
		e    Event
		kind string
	}{
		{RunStart{}, KindRunStart},
		{RunEnd{}, KindRunEnd},
		{Iteration{}, KindIteration},
		{BatchEvaluated{}, KindBatch},
		{StepTime{}, KindStepTime},
		{Converged{}, KindConverged},
		{FaultInjected{}, KindFault},
		{Session{}, KindSession},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		if c.e.EventKind() != c.kind {
			t.Errorf("%T kind = %q, want %q", c.e, c.e.EventKind(), c.kind)
		}
		if seen[c.kind] {
			t.Errorf("duplicate kind tag %q", c.kind)
		}
		seen[c.kind] = true
	}
}

func TestOrNop(t *testing.T) {
	if _, ok := OrNop(nil).(Nop); !ok {
		t.Error("OrNop(nil) should return Nop")
	}
	m := &Memory{}
	if OrNop(m) != Recorder(m) {
		t.Error("OrNop should pass a non-nil recorder through")
	}
	OrNop(nil).Record(StepTime{Step: 1, T: 2}) // must not panic
}

func TestMemoryRecorder(t *testing.T) {
	m := &Memory{}
	m.Record(RunStart{Mode: "sync"})
	m.Record(StepTime{Step: 1, T: 1.5})
	m.Record(StepTime{Step: 2, T: 2.5})
	if m.Len() != 3 {
		t.Errorf("Len = %d", m.Len())
	}
	if m.Count(KindStepTime) != 2 || m.Count(KindFault) != 0 {
		t.Errorf("Count = %d/%d", m.Count(KindStepTime), m.Count(KindFault))
	}
	evs := m.Events()
	if len(evs) != 3 {
		t.Fatalf("Events len = %d", len(evs))
	}
	// Events returns a copy: appending to it must not alias the buffer.
	_ = append(evs, Session{})
	if m.Len() != 3 {
		t.Error("Events exposed internal buffer")
	}
}

func TestMemoryConcurrent(t *testing.T) {
	m := &Memory{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.Record(StepTime{Step: i, T: float64(i)})
			}
		}()
	}
	wg.Wait()
	if m.Len() != 800 {
		t.Errorf("Len = %d, want 800", m.Len())
	}
}

func TestJSONLEnvelopeFormat(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Record(RunStart{Mode: "sync", Algorithm: "pro", Processors: 8, Budget: 80})
	j.Record(StepTime{Step: 1, T: 2.5})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	var env Envelope
	if err := json.Unmarshal([]byte(lines[1]), &env); err != nil {
		t.Fatal(err)
	}
	if env.Seq != 2 || env.Kind != KindStepTime {
		t.Errorf("envelope = %+v", env)
	}
	var st StepTime
	if err := json.Unmarshal(env.Event, &st); err != nil {
		t.Fatal(err)
	}
	if st.Step != 1 || st.T != 2.5 {
		t.Errorf("payload = %+v", st)
	}
	// Field order is fixed: seq, kind, event.
	if !strings.HasPrefix(lines[0], `{"seq":1,"kind":"run_start","event":`) {
		t.Errorf("line = %s", lines[0])
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

func TestJSONLRetainsFirstError(t *testing.T) {
	sentinel := errors.New("disk full")
	j := NewJSONL(failWriter{sentinel})
	j.Record(StepTime{Step: 1, T: 1})
	j.Record(StepTime{Step: 2, T: 2})
	if !errors.Is(j.Err(), sentinel) {
		t.Errorf("Err = %v", j.Err())
	}
}

func TestJSONLDeterministic(t *testing.T) {
	emit := func() string {
		var buf bytes.Buffer
		j := NewJSONL(&buf)
		j.Record(RunStart{Mode: "async", Algorithm: "sro", TimeBudget: 300})
		j.Record(Iteration{Iter: 1, Step: "reflect", Best: []float64{1, 2}, BestValue: 0.5, VTime: 3.25})
		j.Record(RunEnd{Mode: "async", BestValue: 0.5, VTime: 4})
		return buf.String()
	}
	if a, b := emit(), emit(); a != b {
		t.Errorf("identical streams serialised differently:\n%s\nvs\n%s", a, b)
	}
}

func TestFaultValueSurvivesJSON(t *testing.T) {
	// Corrupt faults carry NaN/±Inf; raw float fields would make json.Marshal
	// fail, so the value rides as a FormatValue string.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1.5} {
		e := FaultInjected{Fault: "corrupt", Proc: 3, Value: FormatValue(v)}
		if _, err := json.Marshal(e); err != nil {
			t.Errorf("marshal with value %g: %v", v, err)
		}
	}
	if FormatValue(math.NaN()) != "NaN" {
		t.Errorf("FormatValue(NaN) = %q", FormatValue(math.NaN()))
	}
	if FormatValue(math.Inf(1)) != "+Inf" {
		t.Errorf("FormatValue(+Inf) = %q", FormatValue(math.Inf(1)))
	}
	if FormatValue(0.1) != "0.1" {
		t.Errorf("FormatValue(0.1) = %q", FormatValue(0.1))
	}
}

func TestActive(t *testing.T) {
	for _, tc := range []struct {
		rec  Recorder
		want bool
	}{
		{nil, false},
		{Nop{}, false},
		{&Nop{}, false},
		{OrNop(nil), false},
		{&Memory{}, true},
		{NewJSONL(io.Discard), true},
	} {
		if got := Active(tc.rec); got != tc.want {
			t.Errorf("Active(%T) = %v, want %v", tc.rec, got, tc.want)
		}
	}
}
