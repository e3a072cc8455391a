// Package chanflow is golden-file input pinning that ctxflow catches the
// channel-flow hazards: a send nothing receives, a range over a
// never-closed channel, and a blocking select entered under a held mutex,
// with the closed and non-blocking shapes that must stay silent.
package chanflow

import "sync"

// droppedSend parks forever: nothing in the package receives from signal.
func droppedSend() {
	signal := make(chan struct{})
	signal <- struct{}{} // want "blocking send outside a select"
}

// feed's queue is ranged but never closed: drain cannot terminate.
type feed struct {
	q chan int
}

func (f *feed) drain() int {
	sum := 0
	for v := range f.q { // want "range over channel f.q, which is never closed"
		sum += v
	}
	return sum
}

// batch closes out in finish, so total's range terminates.
type batch struct {
	out chan int
}

func (b *batch) finish() { close(b.out) }

func (b *batch) total() int {
	sum := 0
	for v := range b.out {
		sum += v
	}
	return sum
}

// relay's forward parks inside a select while holding r.mu, convoying
// every other path through the lock, and nothing can cancel it.
type relay struct {
	mu  sync.Mutex
	out chan int
	in  chan int
}

func (r *relay) forward(v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	select { // want "select with no default and no cancellation arm"
	case r.out <- v:
	case v = <-r.in:
	}
}

// forwardNonblocking is fine even under the lock: the default keeps the
// goroutine moving.
func (r *relay) forwardNonblocking(v int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case r.out <- v:
		return true
	default:
		return false
	}
}
