// Package leaktest fails a test binary whose tests pass but leave
// goroutines running. Call it from the package's TestMain:
//
//	func TestMain(m *testing.M) { leaktest.Main(m) }
//
// After the tests, Main polls the goroutine list for up to a short settle
// window, so a goroutine that is shutting down when the last test returns
// may still finish. Any goroutine left after that is a leak, unless it
// belongs to the runtime, testing, internal/fuzz or os/signal: those
// start goroutines the test binary never joins. There is no allowlist for
// the module's own goroutines; a leak is fixed where the goroutine is
// owned.
package leaktest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settle bounds how long Main waits for goroutines to exit once the tests
// have passed. A binary with no goroutine left does not wait at all.
const settle = 2 * time.Second

// ignored are the packages whose goroutines outlive every test binary by
// design, as prefixes of a goroutine's entry function.
var ignored = []string{"runtime.", "testing.", "internal/fuzz.", "os/signal."}

// Main runs the tests and exits with their status. When they passed but
// goroutines are still running after the settle window, it prints each
// one's stack, ending in the go statement that created it, and exits 1.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leaks(settle); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leaktest: %d goroutine(s) still running after the tests passed:\n\n%s\n\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leaks polls until no goroutine but the caller and the ignored ones is
// running, or window has passed, and returns the stacks still running.
func leaks(window time.Duration) []string {
	deadline := time.Now().Add(window)
	wait := time.Millisecond
	for {
		found := running()
		if len(found) == 0 || !time.Now().Before(deadline) {
			return found
		}
		time.Sleep(wait)
		wait = min(2*wait, 100*time.Millisecond)
	}
}

// running returns the stack of every goroutine except the caller's and
// the ignored ones.
func running() []string {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	// Stacks are separated by blank lines, and the caller's comes first.
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] {
		if !isIgnored(g) {
			out = append(out, g)
		}
	}
	return out
}

// isIgnored reports whether the goroutine with this stack belongs to a
// package in ignored: its entry function, the last frame above the
// "created by" line, is in one. A goroutine that has not run yet shows
// runtime.goexit below its entry; that frame is skipped. The main
// goroutine has no creator and runs testing's loop, so it is ignored too.
func isIgnored(stack string) bool {
	frames, _, created := strings.Cut(stack, "\ncreated by ")
	if !created {
		return true
	}
	lines := strings.Split(frames, "\n")
	for i := len(lines) - 1; i > 0; i-- {
		l := lines[i]
		if l == "" || l[0] == '\t' || strings.HasPrefix(l, "...") || strings.HasPrefix(l, "runtime.goexit(") {
			continue
		}
		for _, p := range ignored {
			if strings.HasPrefix(l, p) {
				return true
			}
		}
		return false
	}
	return false
}
