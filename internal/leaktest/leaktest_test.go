package leaktest

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) { Main(m) }

func park(started, ch chan struct{}) {
	close(started)
	<-ch
}

// TestReportsParkedGoroutine: a goroutine blocked on a channel outlives
// the settle window and is reported with its entry function and the go
// statement that created it.
func TestReportsParkedGoroutine(t *testing.T) {
	started, ch := make(chan struct{}), make(chan struct{})
	defer close(ch)
	_, file, line, _ := runtime.Caller(0)
	go park(started, ch)
	<-started
	found := leaks(100 * time.Millisecond)
	if len(found) != 1 {
		t.Fatalf("leaks = %d goroutines, want 1:\n%s", len(found), strings.Join(found, "\n\n"))
	}
	g := found[0]
	site := file + ":" + strconv.Itoa(line+1)
	for _, want := range []string{"[chan receive]", "graftmatch/internal/leaktest.park(",
		"created by graftmatch/internal/leaktest.TestReportsParkedGoroutine", site} {
		if !strings.Contains(g, want) {
			t.Errorf("leaked stack lacks %q:\n%s", want, g)
		}
	}
}

// TestSettledGoroutineIsNotReported: a goroutine that exits inside the
// settle window is not a leak.
func TestSettledGoroutineIsNotReported(t *testing.T) {
	done := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(done)
	}()
	if found := leaks(5 * time.Second); len(found) != 0 {
		t.Fatalf("leaks reported a goroutine that exits in the window:\n%s", strings.Join(found, "\n\n"))
	}
	select {
	case <-done:
	default:
		t.Fatal("leaks returned before the goroutine exited")
	}
}

// TestIgnoresRuntimeAndTesting: the goroutines of the packages in ignored,
// and the main goroutine, are not reported.
func TestIgnoresRuntimeAndTesting(t *testing.T) {
	for _, stack := range []string{
		"goroutine 1 [chan receive]:\ntesting.(*T).Run(0x1)\n\t/go/src/testing/testing.go:1859 +0x431\nmain.main()\n\t_testmain.go:45 +0x9b",
		"goroutine 7 [running]:\ngraftmatch/x.f()\n\t/x/f.go:3 +0x1\ntesting.tRunner(0x1, 0x2)\n\t/go/src/testing/testing.go:1792 +0xf4\ncreated by testing.(*T).Run in goroutine 1\n\t/go/src/testing/testing.go:1851 +0x413",
		"goroutine 9 [syscall]:\nos/signal.signal_recv()\n\t/go/src/runtime/sigqueue.go:152 +0x29\nos/signal.loop()\n\t/go/src/os/signal/signal_unix.go:23 +0x13\ncreated by os/signal.Notify.func1.1 in goroutine 1\n\t/go/src/os/signal/signal.go:151 +0x1f",
	} {
		if !isIgnored(stack) {
			t.Errorf("isIgnored = false for\n%s", stack)
		}
	}
	own := "goroutine 8 [chan receive]:\nruntime.gopark(0x1)\n\t/go/src/runtime/proc.go:435 +0xce\ngraftmatch/internal/par.(*Pool).worker(0x1)\n\t/x/pool.go:90 +0x1\ncreated by graftmatch/internal/par.NewPool in goroutine 7\n\t/x/pool.go:60 +0x1"
	if isIgnored(own) {
		t.Errorf("isIgnored = true for a module goroutine parked in the runtime:\n%s", own)
	}
}
