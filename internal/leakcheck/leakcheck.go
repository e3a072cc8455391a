// Package leakcheck fails a test binary whose tests leave goroutines running
// project code behind them. It replaces a static join-path rule with the
// runtime fact: after the last test returns, no goroutine may still execute,
// or have been started by, a function of this module.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long goroutines may take to exit once the tests are done. A
// joined goroutine can still be a few instructions from exit when its joiner
// resumes (see harmony's TestCloseJoinsSessionGoroutines), so the check polls
// rather than reading the stacks once.
const grace = 5 * time.Second

// Main runs the package's tests, then exits non-zero if a goroutine with a
// frame in this module outlives them by more than grace. Call it from a
// one-line TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if stacks := leaked(grace); len(stacks) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) outlived the tests:\n\n%s\n",
				len(stacks), strings.Join(stacks, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leaked polls until no goroutine other than the caller's has a paratune/
// frame, or until wait has passed, and returns the stacks still found.
func leaked(wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for {
		stacks := moduleStacks()
		if len(stacks) == 0 || time.Now().After(deadline) {
			return stacks
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// moduleStacks returns the stack of every other goroutine that runs, or was
// created by, a function of this module. runtime.Stack writes the calling
// goroutine first, so that block is skipped.
func moduleStacks() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i > 0 && strings.Contains(g, "paratune/") {
			out = append(out, g)
		}
	}
	return out
}
