package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graftmatch/internal/gen"
	"graftmatch/internal/leaktest"
	"graftmatch/internal/matching"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

// testSnapshot builds a snapshot of a real (partial) matching on a small
// generated graph, so the mate arrays have genuine structure.
func testSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	g := gen.ER(40, 40, 160, 3)
	m := matching.New(g.NX(), g.NY())
	// Greedily match a few vertices to get a valid partial matching.
	for x := int32(0); x < g.NX(); x++ {
		for _, y := range g.NbrX(x) {
			if m.MateY[y] == -1 {
				m.Match(x, y)
				break
			}
		}
	}
	return &Snapshot{
		Fingerprint: GraphFingerprint(g),
		Engine:      "MS-BFS-Graft",
		Phase:       7,
		Cardinality: m.Cardinality(),
		Stats: CumulativeStats{
			Phases:             7,
			EdgesTraversed:     1234,
			AugPaths:           9,
			AugPathLen:         31,
			InitialCardinality: 5,
			Grafts:             2,
			Rebuilds:           1,
			Runtime:            42 * time.Millisecond,
		},
		MateX: m.MateX,
		MateY: m.MateY,
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	s := testSnapshot(t)
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != s.Fingerprint || got.Engine != s.Engine ||
		got.Phase != s.Phase || got.Cardinality != s.Cardinality || got.Stats != s.Stats {
		t.Fatalf("roundtrip header mismatch:\n got %+v\nwant %+v", got, s)
	}
	for i := range s.MateX {
		if got.MateX[i] != s.MateX[i] {
			t.Fatalf("mateX[%d] = %d, want %d", i, got.MateX[i], s.MateX[i])
		}
	}
	for i := range s.MateY {
		if got.MateY[i] != s.MateY[i] {
			t.Fatalf("mateY[%d] = %d, want %d", i, got.MateY[i], s.MateY[i])
		}
	}
}

func TestEncodeRejectsMalformed(t *testing.T) {
	s := testSnapshot(t)
	long := *s
	long.Engine = strings.Repeat("x", maxEngineName+1)
	if _, err := Encode(&long); err == nil {
		t.Error("over-long engine name: want error")
	}
	short := *s
	short.MateX = s.MateX[:len(s.MateX)-1]
	if _, err := Encode(&short); err == nil {
		t.Error("mate/fingerprint length mismatch: want error")
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	s := testSnapshot(t)
	path, err := Save(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Ext(path) != ".ckpt" {
		t.Fatalf("unexpected snapshot name %q", path)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality != s.Cardinality {
		t.Fatalf("cardinality %d, want %d", got.Cardinality, s.Cardinality)
	}
	// No temp debris left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("temp file %s left after successful save", e.Name())
		}
	}
}

func TestLoadLatestPrefersHighestCardinality(t *testing.T) {
	dir := t.TempDir()
	s := testSnapshot(t)

	low := *s
	low.MateX = append([]int32(nil), s.MateX...)
	low.MateY = append([]int32(nil), s.MateY...)
	// Unmatch one pair to lower the cardinality.
	for x, y := range low.MateX {
		if y != -1 {
			low.MateX[x] = -1
			low.MateY[y] = -1
			break
		}
	}
	low.Cardinality = s.Cardinality - 1
	low.Phase = 99 // higher phase must not outrank higher cardinality

	if _, err := Save(dir, &low); err != nil {
		t.Fatal(err)
	}
	if _, err := Save(dir, s); err != nil {
		t.Fatal(err)
	}
	got, path, err := LoadLatest(dir, s.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality != s.Cardinality {
		t.Fatalf("LoadLatest picked cardinality %d from %s, want %d", got.Cardinality, path, s.Cardinality)
	}
}

func TestLoadLatestSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := testSnapshot(t)
	goodPath, err := Save(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	// A later, corrupt snapshot must be skipped in favor of the older good one.
	time.Sleep(time.Millisecond) // distinct UnixNano name
	badPath, err := Save(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, path, err := LoadLatest(dir, s.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if path != goodPath {
		t.Fatalf("LoadLatest returned %s, want the intact %s", path, goodPath)
	}
	if got.Cardinality != s.Cardinality {
		t.Fatalf("cardinality %d, want %d", got.Cardinality, s.Cardinality)
	}
}

func TestLoadLatestErrors(t *testing.T) {
	s := testSnapshot(t)

	// Missing or empty directory: ErrNoSnapshot.
	if _, _, err := LoadLatest(filepath.Join(t.TempDir(), "nope"), s.Fingerprint); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("missing dir: got %v, want ErrNoSnapshot", err)
	}
	if _, _, err := LoadLatest(t.TempDir(), s.Fingerprint); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: got %v, want ErrNoSnapshot", err)
	}

	// Only corrupt snapshots: the corruption surfaces, not ErrNoSnapshot.
	dir := t.TempDir()
	path, err := Save(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 10); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, _, err := LoadLatest(dir, s.Fingerprint); !errors.As(err, &ce) {
		t.Fatalf("all-corrupt dir: got %v, want *CorruptError", err)
	}

	// Only mismatched snapshots: typed mismatch error.
	dir2 := t.TempDir()
	if _, err := Save(dir2, s); err != nil {
		t.Fatal(err)
	}
	other := s.Fingerprint
	other.AdjHash ^= 1
	var me *MismatchError
	if _, _, err := LoadLatest(dir2, other); !errors.As(err, &me) {
		t.Fatalf("mismatched dir: got %v, want *MismatchError", err)
	}
}

func TestPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	s := testSnapshot(t)
	for i := 0; i < 6; i++ {
		if _, err := Save(dir, s); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	// Plant stale temp debris; Prune must sweep it.
	stale := filepath.Join(dir, ".ck-stale.tmp")
	if err := os.WriteFile(stale, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Minute)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if err := Prune(dir, 2); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts, tmps int
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".ckpt":
			ckpts++
		case ".tmp":
			tmps++
		}
	}
	if ckpts != 2 {
		t.Fatalf("%d snapshots after Prune(2), want 2", ckpts)
	}
	if tmps != 0 {
		t.Fatalf("stale temp file survived Prune")
	}
	// The survivors must still be loadable.
	if _, _, err := LoadLatest(dir, s.Fingerprint); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	g1 := gen.ER(30, 30, 100, 1)
	g2 := gen.ER(30, 30, 100, 2) // same shape, different edges
	if GraphFingerprint(g1) == GraphFingerprint(g2) {
		t.Fatal("different graphs share a fingerprint")
	}
	if GraphFingerprint(g1) != GraphFingerprint(g1) {
		t.Fatal("fingerprint is not deterministic")
	}
}
