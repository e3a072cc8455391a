package harmony

import (
	"sync"
	"testing"
	"time"
)

func TestFakeClockNowAndAdvance(t *testing.T) {
	start := time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)
	clk := NewFakeClock(start)
	if got := clk.Now(); !got.Equal(start) {
		t.Fatalf("Now() = %v, want %v", got, start)
	}
	clk.Advance(90 * time.Second)
	if got, want := clk.Now(), start.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("after Advance, Now() = %v, want %v", got, want)
	}
}

func TestFakeClockAfterFiresOnAdvance(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	ch := clk.After(time.Minute)
	if clk.Waiters() != 1 {
		t.Fatalf("Waiters() = %d, want 1", clk.Waiters())
	}
	select {
	case at := <-ch:
		t.Fatalf("waiter fired before deadline at %v", at)
	default:
	}

	clk.Advance(30 * time.Second)
	select {
	case at := <-ch:
		t.Fatalf("waiter fired halfway to deadline at %v", at)
	default:
	}

	clk.Advance(30 * time.Second)
	select {
	case <-ch:
	default:
		t.Fatal("waiter did not fire once the deadline passed")
	}
	if clk.Waiters() != 0 {
		t.Fatalf("Waiters() = %d after firing, want 0", clk.Waiters())
	}
}

func TestFakeClockAfterNonPositiveFiresImmediately(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	for _, d := range []time.Duration{0, -time.Second} {
		select {
		case <-clk.After(d):
		default:
			t.Fatalf("After(%v) did not fire immediately", d)
		}
	}
	if clk.Waiters() != 0 {
		t.Fatalf("Waiters() = %d, want 0", clk.Waiters())
	}
}

func TestFakeClockAdvanceFiresOnlyDueWaiters(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	soon := clk.After(time.Minute)
	late := clk.After(time.Hour)
	if clk.Waiters() != 2 {
		t.Fatalf("Waiters() = %d, want 2", clk.Waiters())
	}

	clk.Advance(time.Minute)
	select {
	case <-soon:
	default:
		t.Fatal("due waiter did not fire")
	}
	select {
	case <-late:
		t.Fatal("undue waiter fired early")
	default:
	}
	if clk.Waiters() != 1 {
		t.Fatalf("Waiters() = %d, want 1", clk.Waiters())
	}

	clk.Advance(time.Hour)
	select {
	case <-late:
	default:
		t.Fatal("remaining waiter did not fire after its deadline")
	}
}

// FakeClock is a manually advanced Clock for tests. Time only moves when
// Advance is called; waiters registered through After fire as soon as the
// clock passes their deadline.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewFakeClock returns a FakeClock reading start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the fake current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a channel that fires once Advance moves the clock at least d
// past the current reading. A non-positive d fires immediately.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, fakeWaiter{at: c.now.Add(d), ch: ch})
	return ch
}

// Advance moves the clock forward by d and fires every waiter whose deadline
// has passed.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if w.at.After(c.now) {
			kept = append(kept, w)
			continue
		}
		w.ch <- w.at // buffered; never blocks
	}
	c.waiters = kept
}

// Waiters returns how many After channels are armed but not yet fired;
// tests use it to synchronise with a goroutine's select loop before
// advancing the clock.
func (c *FakeClock) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
