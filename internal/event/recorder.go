package event

import (
	"encoding/json"
	"io"
	"sync"
)

// Recorder consumes tuning events. Implementations must be safe for
// concurrent use: the harmony server records from several goroutines.
type Recorder interface {
	Record(e Event)
}

// Nop discards every event. The zero value is ready to use.
type Nop struct{}

// Record implements Recorder.
func (Nop) Record(Event) {}

// OrNop returns r, or a Nop recorder when r is nil, so call sites never need
// a nil guard.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop{}
	}
	return r
}

// Active reports whether r observes anything: false for nil and for Nop.
// Hot emitters test it once and build no event (no boxing, no formatted
// config key) when nobody is listening.
func Active(r Recorder) bool {
	switch r.(type) {
	case nil, Nop, *Nop:
		return false
	}
	return true
}

// Memory buffers events in order of arrival. The zero value is ready to use.
type Memory struct {
	mu     sync.Mutex
	events []Event
}

// Record implements Recorder.
func (m *Memory) Record(e Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// Events returns a copy of the recorded stream.
func (m *Memory) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// Count returns how many events of the given kind were recorded.
func (m *Memory) Count(kind string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.events {
		if e.EventKind() == kind {
			n++
		}
	}
	return n
}

// Len returns the number of recorded events.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

// Envelope is the JSONL wire form of one event: a monotone sequence number,
// the kind tag, and the typed payload. Field order is fixed by this struct,
// so a deterministic event stream serialises byte-identically.
type Envelope struct {
	Seq   uint64          `json:"seq"`
	Kind  string          `json:"kind"`
	Event json.RawMessage `json:"event"`
}

// JSONL writes one JSON envelope per event to w. Writes are serialised by an
// internal mutex; the first marshal or write error is retained and reported
// by Err, after which subsequent events are dropped.
type JSONL struct {
	mu  sync.Mutex
	w   io.Writer
	seq uint64
	err error
}

// NewJSONL wraps w in a JSONL recorder.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w}
}

// Record implements Recorder.
func (j *JSONL) Record(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	payload, err := json.Marshal(e)
	if err != nil {
		j.err = err
		return
	}
	j.seq++
	line, err := json.Marshal(Envelope{Seq: j.seq, Kind: e.EventKind(), Event: payload})
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		j.err = err
	}
}

// Err returns the first marshal or write error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
