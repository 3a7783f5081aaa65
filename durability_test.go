package graftmatch

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graftmatch/internal/checkpoint"
	"graftmatch/internal/gen"
)

// TestCheckpointEmissionAndResume: a run with checkpointing cancelled
// mid-computation must leave a loadable snapshot on disk, and resuming from
// it must reach the same maximum cardinality as an uninterrupted run.
func TestCheckpointEmissionAndResume(t *testing.T) {
	g := gen.ER(500, 500, 1500, 3)
	want, err := Match(g, Options{Initializer: NoInit})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := MatchContext(ctx, g, Options{
		Initializer: NoInit,
		Checkpoint:  &CheckpointOptions{Dir: dir},
		OnPhase: func(phase, card int64) {
			if phase == 2 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointErr != nil {
		t.Fatalf("checkpoint write failed: %v", res.CheckpointErr)
	}
	if res.CheckpointPath == "" {
		t.Fatal("no checkpoint path on a checkpointed run")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts int
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".ckpt" {
			ckpts++
		}
	}
	if ckpts == 0 {
		t.Fatal("no snapshot files emitted")
	}

	st, err := LoadCheckpoint(g, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMatching(g, st.MateX, st.MateY); err != nil {
		t.Fatalf("restored matching invalid: %v", err)
	}
	resumed, err := ResumeMatch(g, st.MateX, st.MateY, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Complete || resumed.Cardinality != want.Cardinality {
		t.Fatalf("resumed to %d (complete=%v), want %d",
			resumed.Cardinality, resumed.Complete, want.Cardinality)
	}
}

// TestCheckpointFinalSnapshotOnCompletion: a run allowed to finish writes a
// final snapshot whose cardinality is the maximum, restorable even for
// serial engines that report no phases.
func TestCheckpointFinalSnapshotOnCompletion(t *testing.T) {
	g := gen.ER(200, 200, 800, 5)
	for _, algo := range []Algorithm{MSBFSGraft, HopcroftKarp} {
		dir := t.TempDir()
		res, err := Match(g, Options{Algorithm: algo, Checkpoint: &CheckpointOptions{Dir: dir}})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.CheckpointErr != nil {
			t.Fatalf("%v: %v", algo, res.CheckpointErr)
		}
		st, err := LoadCheckpoint(g, dir)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if st.Cardinality != res.Cardinality {
			t.Fatalf("%v: snapshot |M|=%d, run |M|=%d", algo, st.Cardinality, res.Cardinality)
		}
		if st.Engine != algo.String() {
			t.Fatalf("%v: snapshot engine %q", algo, st.Engine)
		}
	}
}

// TestCheckpointKeepBound: retention pruning holds the snapshot count at
// CheckpointOptions.Keep.
func TestCheckpointKeepBound(t *testing.T) {
	g := gen.ER(500, 500, 1500, 3)
	dir := t.TempDir()
	if _, err := Match(g, Options{
		Initializer: NoInit,
		Checkpoint:  &CheckpointOptions{Dir: dir, Keep: 2},
	}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts int
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".ckpt" {
			ckpts++
		}
	}
	if ckpts > 2 {
		t.Fatalf("%d snapshots retained, want <= 2", ckpts)
	}
}

// TestLoadCheckpointErrors: an empty directory is ErrNoCheckpoint (start
// fresh); a snapshot of a different graph is a typed mismatch, not silence.
func TestLoadCheckpointErrors(t *testing.T) {
	g := gen.ER(100, 100, 400, 1)
	if _, err := LoadCheckpoint(g, t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: got %v, want ErrNoCheckpoint", err)
	}
	if _, err := LoadCheckpoint(nil, t.TempDir()); err == nil {
		t.Fatal("nil graph: want error")
	}

	// Checkpoint one graph, try to restore onto another.
	dir := t.TempDir()
	if _, err := Match(g, Options{Checkpoint: &CheckpointOptions{Dir: dir}}); err != nil {
		t.Fatal(err)
	}
	other := gen.ER(100, 100, 400, 2)
	var me *checkpoint.MismatchError
	if _, err := LoadCheckpoint(other, dir); !errors.As(err, &me) {
		t.Fatalf("wrong graph: got %v, want *MismatchError", err)
	}
}

// TestCheckpointWriteFailureDoesNotAbort: an unwritable checkpoint dir is
// reported via CheckpointErr while the computation still completes.
func TestCheckpointWriteFailureDoesNotAbort(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	parent := t.TempDir()
	if err := os.Chmod(parent, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chmod(parent, 0o755) })
	g := gen.ER(200, 200, 800, 5)
	res, err := Match(g, Options{
		Checkpoint: &CheckpointOptions{Dir: filepath.Join(parent, "ck")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("run did not complete despite checkpoint failure being best-effort")
	}
	if res.CheckpointErr == nil {
		t.Fatal("unwritable dir not reported via CheckpointErr")
	}
}

// TestCkptWriterFinalBypassesInterval: a final snapshot must land even with
// a rate limit that suppresses every observe after the first, and it must
// carry the engine's phase count.
func TestCkptWriterFinalBypassesInterval(t *testing.T) {
	g := gen.ER(100, 100, 300, 7)
	dir := t.TempDir()
	w := newCkptWriter(g, CheckpointOptions{Dir: dir, Interval: time.Hour}, 0, nil)

	mateX := make([]int32, 100)
	mateY := make([]int32, 100)
	for i := range mateX {
		mateX[i], mateY[i] = -1, -1
	}
	for p := int64(0); p < 50; p++ {
		w.observe("tg", p, 0, mateX, mateY)
	}
	w.final("tg", &Stats{Phases: 50}, 0, mateX, mateY)

	path, err := w.status()
	if err != nil {
		t.Fatalf("status after final: %v", err)
	}
	if path == "" {
		t.Fatal("final snapshot was not written despite the hour-long observe rate limit")
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("loading final snapshot: %v", err)
	}
	if snap.Stats.Phases != 50 {
		t.Fatalf("final snapshot phases = %d, want 50", snap.Stats.Phases)
	}
}
