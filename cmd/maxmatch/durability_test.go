package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graftmatch"
	"graftmatch/internal/gen"
	"graftmatch/internal/mmio"
)

func TestRunCheckpointAndResume(t *testing.T) {
	path := writeTestMatrix(t)
	ckdir := filepath.Join(t.TempDir(), "ck")
	if err := run([]string{"-checkpoint-dir", ckdir, "-verify", path}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(ckdir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no snapshots written (err=%v)", err)
	}
	// Resuming from the final snapshot must verify and certify maximum.
	if err := run([]string{"-checkpoint-dir", ckdir, "-resume", "-verify", "-stats", path}); err != nil {
		t.Fatal(err)
	}
}

func TestResumeEmptyDirStartsFresh(t *testing.T) {
	path := writeTestMatrix(t)
	ckdir := filepath.Join(t.TempDir(), "ck")
	if err := run([]string{"-checkpoint-dir", ckdir, "-resume", "-verify", path}); err != nil {
		t.Fatal(err)
	}
}

func TestResumeRequiresCheckpointDir(t *testing.T) {
	path := writeTestMatrix(t)
	if err := run([]string{"-resume", path}); err == nil {
		t.Fatal("-resume without -checkpoint-dir must fail")
	}
}

func TestResumeCorruptCheckpointExitsDistinctly(t *testing.T) {
	path := writeTestMatrix(t)
	ckdir := t.TempDir()
	bad := filepath.Join(ckdir, "ck-00000000000000000001.ckpt")
	if err := os.WriteFile(bad, []byte("GMCK garbage, not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-checkpoint-dir", ckdir, "-resume", path})
	if !errors.Is(err, errCheckpoint) {
		t.Fatalf("got %v, want errCheckpoint (exit status 4)", err)
	}
}

func TestResumeWrongGraphExitsDistinctly(t *testing.T) {
	ckdir := filepath.Join(t.TempDir(), "ck")
	pathA := writeTestMatrix(t)
	if err := run([]string{"-checkpoint-dir", ckdir, pathA}); err != nil {
		t.Fatal(err)
	}
	pathB := filepath.Join(t.TempDir(), "other.mtx")
	if err := mmio.WriteFile(pathB, gen.ER(50, 50, 200, 99)); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-checkpoint-dir", ckdir, "-resume", pathB})
	if !errors.Is(err, errCheckpoint) {
		t.Fatalf("got %v, want errCheckpoint for a wrong-graph checkpoint", err)
	}
}

// TestHelperProcess is not a test: it is the child body for the kill-restart
// test below, re-executing the CLI in a separate process so a SIGKILL is
// survivable by the parent.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("MAXMATCH_HELPER") != "1" {
		return
	}
	if err := run(strings.Split(os.Getenv("MAXMATCH_ARGS"), "\n")); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestKillAndRestart is the crash-safety property end to end: SIGKILL a
// checkpointing maxmatch process as soon as its first snapshot lands, resume
// from disk, and require the resumed run to reach the same maximum
// cardinality as an uninterrupted run.
func TestKillAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess")
	}
	dir := t.TempDir()
	g := gen.RMAT(13, 8, 0.45, 0.25, 0.15, 7)
	gpath := filepath.Join(dir, "g.mtx")
	if err := mmio.WriteFile(gpath, g); err != nil {
		t.Fatal(err)
	}
	ref, err := graftmatch.Match(g, graftmatch.Options{Initializer: graftmatch.NoInit})
	if err != nil {
		t.Fatal(err)
	}

	ckdir := filepath.Join(dir, "ck")
	args := []string{"-init", "none", "-checkpoint-dir", ckdir, gpath}
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcess")
	cmd.Env = append(os.Environ(),
		"MAXMATCH_HELPER=1",
		"MAXMATCH_ARGS="+strings.Join(args, "\n"))
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	// Kill the instant the first snapshot appears — mid-run for any
	// instance with more than one phase. If the child outraces the poll,
	// the resume still must reproduce the reference cardinality.
	deadline := time.After(60 * time.Second)
	killed := false
poll:
	for {
		entries, err := os.ReadDir(ckdir)
		if err == nil {
			for _, e := range entries {
				if filepath.Ext(e.Name()) == ".ckpt" {
					killed = cmd.Process.Kill() == nil
					break poll
				}
			}
		}
		select {
		case <-done:
			break poll
		case <-deadline:
			_ = cmd.Process.Kill()
			t.Fatal("no snapshot appeared within 60s")
		case <-time.After(200 * time.Microsecond):
		}
	}
	if killed {
		<-done // reap the killed child
	}

	// Restart from disk and certify the result.
	resumeArgs := []string{"-init", "none", "-checkpoint-dir", ckdir, "-resume", "-verify", gpath}
	if err := run(resumeArgs); err != nil {
		t.Fatalf("resume after kill: %v", err)
	}
	st, err := graftmatch.LoadCheckpoint(g, ckdir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cardinality != ref.Cardinality {
		t.Fatalf("resumed run reached |M|=%d, uninterrupted reference %d", st.Cardinality, ref.Cardinality)
	}
}
