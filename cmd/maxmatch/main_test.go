package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"graftmatch/internal/gen"
	"graftmatch/internal/leaktest"
	"graftmatch/internal/mmio"
)

func TestMain(m *testing.M) {
	// The CLI prints results to stdout; keep test output clean.
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err == nil {
		os.Stdout = devnull
	}
	leaktest.Main(m)
}

func writeTestMatrix(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.mtx")
	if err := mmio.WriteFile(path, gen.ER(50, 50, 200, 1)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllAlgorithms(t *testing.T) {
	path := writeTestMatrix(t)
	for _, name := range []string{"msbfsgraft", "msbfs", "diropt", "pf", "pr", "hk", "ssbfs", "ssdfs"} {
		if err := run([]string{"-algo", name, "-verify", "-stats", path}); err != nil {
			t.Fatalf("algo %s: %v", name, err)
		}
	}
}

func TestRunAllInitializers(t *testing.T) {
	path := writeTestMatrix(t)
	for _, name := range []string{"ks", "greedy", "pgreedy", "pks", "none"} {
		if err := run([]string{"-init", name, "-verify", path}); err != nil {
			t.Fatalf("init %s: %v", name, err)
		}
	}
}

func TestRunMatesOutput(t *testing.T) {
	path := writeTestMatrix(t)
	if err := run([]string{"-mates", "-threads", "2", path}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTestMatrix(t)
	cases := [][]string{
		{},                            // no file
		{path, "extra"},               // two files
		{"-algo", "bogus", path},      // unknown algorithm
		{"-init", "bogus", path},      // unknown initializer
		{"/does/not/exist.mtx"},       // missing file
		{"-threads", "notanum", path}, // flag parse error
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}

// TestTimeoutPartial: an immediately-expiring timeout must yield the
// distinct errPartial (exit status 3 in main), with -verify accepting the
// partial matching, for both parallel and serial algorithms.
func TestTimeoutPartial(t *testing.T) {
	path := writeTestMatrix(t)
	for _, algo := range []string{"msbfsgraft", "pf", "pr", "hk"} {
		err := run([]string{"-algo", algo, "-init", "none", "-timeout", "1ns", "-verify", "-stats", path})
		if !errors.Is(err, errPartial) {
			t.Fatalf("algo %s: got %v, want errPartial", algo, err)
		}
	}
}

// TestTimeoutGenerous: a timeout the run comfortably beats must change
// nothing.
func TestTimeoutGenerous(t *testing.T) {
	path := writeTestMatrix(t)
	if err := run([]string{"-timeout", "1h", "-verify", path}); err != nil {
		t.Fatal(err)
	}
}

// TestTimeoutPartialJSON: the JSON summary must carry complete=false and
// the run must still exit via errPartial.
func TestTimeoutPartialJSON(t *testing.T) {
	path := writeTestMatrix(t)
	err := run([]string{"-init", "none", "-timeout", "1ns", "-json", path})
	if !errors.Is(err, errPartial) {
		t.Fatalf("got %v, want errPartial", err)
	}
}

func TestOutAndJSON(t *testing.T) {
	path := writeTestMatrix(t)
	out := filepath.Join(t.TempDir(), "m.txt")
	if err := run([]string{"-out", out, "-json", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty matching file")
	}
	if err := run([]string{"-out", "/nodir/x.txt", path}); err == nil {
		t.Fatal("want error for unwritable out path")
	}
}

// TestObsAddr: -obs-addr serves the operational surface for the run's
// duration (a successful run closes it cleanly) and a bad address fails the
// run immediately instead of computing unobserved.
func TestObsAddr(t *testing.T) {
	path := writeTestMatrix(t)
	if err := run([]string{"-obs-addr", "127.0.0.1:0", "-stats", "-verify", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-obs-addr", "127.0.0.1:99999", path}); err == nil {
		t.Fatal("bad -obs-addr: want bind error")
	}
}
