package harmony

import "time"

// Clock abstracts the server's wall-time source for session bookkeeping —
// lastUsed stamps and idle-expiry checks — so tests drive expiry with a
// fake clock instead of real sleeps, and the paralint determinism contract
// has a single, documented wall-clock seam.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the time once d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// systemClock is the production Clock: real time.
type systemClock struct{}

func (systemClock) Now() time.Time                         { return time.Now() }
func (systemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// SystemClock returns the real-time Clock used when ServerOptions.Clock is
// nil.
func SystemClock() Clock { return systemClock{} }
