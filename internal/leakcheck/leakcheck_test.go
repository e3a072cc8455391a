package leakcheck

import (
	"testing"
	"time"
)

// TestLeakedReportsParkedGoroutine pins both sides of the check: a goroutine
// parked on a channel nobody sends on is reported with its stack, and one
// that exits within the grace period is not.
func TestLeakedReportsParkedGoroutine(t *testing.T) {
	park := make(chan struct{})
	go func() { <-park }()
	stacks := leaked(50 * time.Millisecond)
	close(park)
	if len(stacks) != 1 {
		t.Fatalf("parked goroutine: got %d leaked stacks, want 1:\n%v", len(stacks), stacks)
	}

	go func() { time.Sleep(100 * time.Millisecond) }()
	if stacks := leaked(5 * time.Second); len(stacks) != 0 {
		t.Fatalf("goroutine exiting within the grace period reported as leaked:\n%v", stacks)
	}
}
