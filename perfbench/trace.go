package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// noParent marks a root span.
const noParent int32 = -1

// Span is one timed interval recorded by the benchmark around a call into a
// layer. Times are nanoseconds on the monotonic clock since the tracer's
// epoch; Parent indexes the span that caused this one.
type Span struct {
	Name       string
	Start, End int64
	Parent     int32
	ID         int64 // session or request id
}

// Tracer keeps spans in memory; they are written out once the run ends.
// A nil *Tracer records nothing, so untraced code paths call it freely.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// newTracer starts an empty tracer whose epoch is now.
func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NextID returns a fresh request id.
func (t *Tracer) NextID() int64 { return t.ids.Add(1) }

// Now returns the tracer clock.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// Add records a finished span and returns its index.
func (t *Tracer) Add(name string, start, end int64, parent int32, id int64) int32 {
	if t == nil {
		return noParent
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end, Parent: parent, ID: id})
	return int32(len(t.spans) - 1)
}

// Begin opens a span at the current time; End closes it.
func (t *Tracer) Begin(name string, parent int32, id int64) int32 {
	if t == nil {
		return noParent
	}
	now := t.Now()
	return t.Add(name, now, now, parent, id)
}

// End closes the span Begin opened.
func (t *Tracer) End(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := t.Now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteTSV writes one span per line: name, start, end, parent, id.
func (t *Tracer) WriteTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tparent\tid")
	for _, s := range t.Spans() {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.Name, s.Start, s.End, s.Parent, s.ID)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its children. Children are clipped to the parent and
// overlapping children count once, so a parent's self time is never
// negative and concurrent children are not double-subtracted.
func selfTimes(spans []Span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent == noParent {
			continue
		}
		children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s.Start, s.End, children[int32(i)])
	}
	return self
}

// covered returns how much of [lo, hi) the union of ivs overlaps.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a, b := iv[0], iv[1]
		if a < end {
			a = end
		}
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// layerTimes groups span durations and self times by span name, in
// microseconds.
type layerTimes struct {
	dur, self map[string][]float64
}

func collectLayers(spans []Span) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{dur: make(map[string][]float64), self: make(map[string][]float64)}
	for i, s := range spans {
		lt.dur[s.Name] = append(lt.dur[s.Name], float64(s.End-s.Start)/1e3)
		lt.self[s.Name] = append(lt.self[s.Name], float64(self[i])/1e3)
	}
	return lt
}

// count is the number of spans with the given name.
func (lt layerTimes) count(name string) int { return len(lt.dur[name]) }
