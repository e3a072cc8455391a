// Package ctxflow is golden-file input for the ctxflow analyzer, loaded
// under a scoped import path (harmony): blocking channel ops must carry a
// cancellation path — a ctx.Done()/done-channel/timer arm in the select, a
// provably buffered send — and a ranged channel must be closed in the
// package, or be flagged.
package ctxflow

import (
	"context"
	"time"
)

type worker struct {
	jobs    chan int
	done    chan struct{}
	results chan int
}

// stop closes done, making it a recognised cancellation channel.
func (w *worker) stop() { close(w.done) }

// cancellable is fine: the select carries a done arm.
func (w *worker) cancellable() {
	select {
	case j := <-w.jobs:
		_ = j
	case <-w.done:
	}
}

// uncancellable parks forever once jobs dries up.
func (w *worker) uncancellable() {
	select { // want "select with no default and no cancellation arm"
	case j := <-w.jobs:
		_ = j
	}
}

// ctxSelect has a context in scope but never selects on it.
func (w *worker) ctxSelect(ctx context.Context) {
	for {
		select { // want "select with no default and no cancellation arm"
		case j := <-w.jobs:
			_ = j
		}
	}
}

// bareSend blocks with no way out if the receiver is gone.
func (w *worker) bareSend(v int) {
	w.jobs <- v // want "blocking send outside a select"
}

// bareRecv blocks with no way out if the sender is gone.
func (w *worker) bareRecv() int {
	return <-w.jobs // want "blocking receive outside a select"
}

// reply is fine: every make of chan error in the package is buffered, so
// the send cannot park.
func reply() chan error {
	ch := make(chan error, 1)
	ch <- nil
	return ch
}

// waitStopped is fine: done is closed in this package, and a closed channel
// never blocks a receive.
func (w *worker) waitStopped() {
	<-w.done
}

// deadlineSelect is fine: the timer arm bounds the park.
func (w *worker) deadlineSelect(timeout <-chan time.Time) {
	select {
	case j := <-w.jobs:
		_ = j
	case <-timeout:
	}
}

// ctxSelectDone is fine: the ctx.Done() arm is the cancellation path.
func (w *worker) ctxSelectDone(ctx context.Context) {
	select {
	case j := <-w.jobs:
		_ = j
	case <-ctx.Done():
	}
}

// drainJobs never ends: nothing in the package closes jobs.
func (w *worker) drainJobs() int {
	sum := 0
	for j := range w.jobs { // want "range over channel w.jobs, which is never closed"
		sum += j
	}
	return sum
}

// poll never ends: a ticker's channel is never closed.
func (w *worker) poll(d time.Duration) {
	for range time.NewTicker(d).C { // want "range over channel time.NewTicker\(d\).C, which is never closed"
		w.cancellable()
	}
}

// finish closes results, so collect's range terminates.
func (w *worker) finish() { close(w.results) }

func (w *worker) collect() int {
	sum := 0
	for r := range w.results {
		sum += r
	}
	return sum
}
