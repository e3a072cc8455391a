// Package alloccheck pins the heap allocation counts of the hot paths: the
// simulator and tuning steps, the estimators, the wire codecs, and the store,
// cache and surrogate lookups. A hot-path guard's budget is the exact count
// measured on the current code, not an upper bound with slack, so any new
// allocation on a guarded path — an fmt call, a boxed float, a clone, a
// buffer that stopped being reused — fails its test. The pins do not flake:
// testing.AllocsPerRun integer-divides the total by the run count, so
// amortised growth (a slice that doubles once in many runs) reads as 0.
package alloccheck

import "testing"

// Guard fails t when f averages more than budget heap allocations per run.
// It is skipped under the race detector, whose instrumentation inflates
// allocation counts beyond anything the budget is meant to police.
func Guard(t *testing.T, name string, budget float64, f func()) {
	t.Helper()
	if RaceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	got := testing.AllocsPerRun(100, f)
	t.Logf("%s: %.1f allocs/run (budget %.1f)", name, got, budget)
	if got > budget {
		t.Errorf("%s: %.1f allocs/run exceeds budget %.1f", name, got, budget)
	}
}
