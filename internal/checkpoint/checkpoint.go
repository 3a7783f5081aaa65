// Package checkpoint persists matching run state as crash-safe binary
// snapshots, the durability layer under Options.Checkpoint, matchd's
// restored last-good floors and the cluster coordinator. A snapshot
// captures everything needed to restart a killed run without losing matched
// edges: the mate arrays (always a valid partial matching at a phase
// boundary), a fingerprint of the graph they were computed on, the engine
// that produced them, and cumulative run statistics.
//
// Snapshots are written with temp-file + atomic rename, so a crash mid-write
// can never destroy an older snapshot, and a reader never observes a partial
// file under a .ckpt name. Every file carries a magic number, a format
// version, and a trailing CRC32 over the entire contents; truncated,
// bit-flipped, or foreign files are rejected with a *CorruptError, and
// snapshots of a different graph with a *MismatchError, so LoadLatest can
// fall back to the newest snapshot that is still intact.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"time"

	"graftmatch/internal/bipartite"
)

// Version is the snapshot format version this package writes and reads.
const Version = 1

// magic identifies a graftmatch checkpoint file.
var magic = [4]byte{'G', 'M', 'C', 'K'}

// maxEngineName bounds the engine-id string so a corrupt length field cannot
// drive a huge allocation before the CRC check would catch it.
const maxEngineName = 256

// ErrNoSnapshot is returned by LoadLatest when the directory holds no
// snapshot files at all (as opposed to holding only corrupt ones).
var ErrNoSnapshot = errors.New("checkpoint: no snapshot found")

// CorruptError reports a snapshot file that failed structural validation:
// truncated, bit-flipped (CRC mismatch), wrong magic or version, or
// internally inconsistent mate arrays.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint: %s: corrupt snapshot: %s", e.Path, e.Reason)
}

// MismatchError reports a structurally valid snapshot that was taken on a
// different graph than the one being restored.
type MismatchError struct {
	Path      string
	Want, Got Fingerprint
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: %s: snapshot is for a different graph (want %v, got %v)",
		e.Path, e.Want, e.Got)
}

// Fingerprint identifies the graph a snapshot belongs to: the dimensions,
// the edge count, and an FNV-1a hash of the X-side CSR (offsets and
// adjacency). Restoring a snapshot onto a graph with a different fingerprint
// would silently produce an invalid matching, so loads reject it.
type Fingerprint struct {
	NX, NY  int32
	NNZ     int64
	AdjHash uint64
}

// String renders the fingerprint compactly for error messages.
func (f Fingerprint) String() string {
	return fmt.Sprintf("{%dx%d nnz=%d adj=%016x}", f.NX, f.NY, f.NNZ, f.AdjHash)
}

// GraphFingerprint computes the fingerprint of g.
func GraphFingerprint(g *bipartite.Graph) Fingerprint {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range g.XPtr() {
		binary.LittleEndian.PutUint64(buf[:], uint64(p))
		_, _ = h.Write(buf[:]) // hash.Hash.Write never fails
	}
	for _, y := range g.XNbr() {
		binary.LittleEndian.PutUint32(buf[:4], uint32(y))
		_, _ = h.Write(buf[:4])
	}
	return Fingerprint{NX: g.NX(), NY: g.NY(), NNZ: g.NumEdges(), AdjHash: h.Sum64()}
}

// CumulativeStats carries the run counters worth preserving across a
// restart. Mid-run snapshots fill what the phase hook can observe (phases,
// initial cardinality, elapsed time); the final snapshot of a completed run
// carries the engine's full counters.
type CumulativeStats struct {
	Phases             int64
	EdgesTraversed     int64
	AugPaths           int64
	AugPathLen         int64
	InitialCardinality int64
	Grafts             int64
	Rebuilds           int64
	Runtime            time.Duration
}

// Snapshot is one checkpoint: a valid (possibly partial) matching of the
// fingerprinted graph plus the run position it was taken at.
type Snapshot struct {
	Fingerprint Fingerprint
	Engine      string // algorithm id, e.g. "MS-BFS-Graft"
	Phase       int64  // phase counter of the producing run
	Cardinality int64  // |M| of the mate arrays
	Stats       CumulativeStats
	MateX       []int32
	MateY       []int32
}

// Encode serializes s into the on-disk format (including trailer CRC).
func Encode(s *Snapshot) ([]byte, error) {
	if len(s.Engine) > maxEngineName {
		return nil, fmt.Errorf("checkpoint: engine name %q exceeds %d bytes", s.Engine, maxEngineName)
	}
	if int32(len(s.MateX)) != s.Fingerprint.NX || int32(len(s.MateY)) != s.Fingerprint.NY {
		return nil, fmt.Errorf("checkpoint: mate array lengths (%d,%d) do not match fingerprint (%d,%d)",
			len(s.MateX), len(s.MateY), s.Fingerprint.NX, s.Fingerprint.NY)
	}
	size := 4 + 4 + // magic, version
		4 + 4 + 8 + 8 + // fingerprint
		4 + len(s.Engine) + // engine
		8 + 8 + // phase, cardinality
		8*8 + // stats
		4 + 4*len(s.MateX) +
		4 + 4*len(s.MateY) +
		4 // crc
	buf := make([]byte, 0, size)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Fingerprint.NX))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Fingerprint.NY))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Fingerprint.NNZ))
	buf = binary.LittleEndian.AppendUint64(buf, s.Fingerprint.AdjHash)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Engine)))
	buf = append(buf, s.Engine...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Phase))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Cardinality))
	for _, v := range []int64{
		s.Stats.Phases, s.Stats.EdgesTraversed, s.Stats.AugPaths, s.Stats.AugPathLen,
		s.Stats.InitialCardinality, s.Stats.Grafts, s.Stats.Rebuilds, int64(s.Stats.Runtime),
	} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.MateX)))
	for _, v := range s.MateX {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.MateY)))
	for _, v := range s.MateY {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// decoder is a bounds-checked cursor over an encoded snapshot.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.data)-d.off {
		d.err = fmt.Errorf("truncated at offset %d (need %d more bytes)", d.off, n)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Decode parses and validates an encoded snapshot. Any structural problem —
// truncation, CRC mismatch, out-of-range or asymmetric mates — yields a
// *CorruptError (with Path unset; Load fills it in).
func Decode(data []byte) (*Snapshot, error) {
	corrupt := func(format string, args ...any) (*Snapshot, error) {
		return nil, &CorruptError{Reason: fmt.Sprintf(format, args...)}
	}
	if len(data) < 12 {
		return corrupt("file is %d bytes, smaller than any snapshot", len(data))
	}
	if [4]byte(data[:4]) != magic {
		return corrupt("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return corrupt("unsupported format version %d (want %d)", v, Version)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return corrupt("CRC mismatch: computed %08x, stored %08x", got, want)
	}

	d := &decoder{data: body, off: 8}
	s := &Snapshot{}
	s.Fingerprint.NX = int32(d.u32())
	s.Fingerprint.NY = int32(d.u32())
	s.Fingerprint.NNZ = int64(d.u64())
	s.Fingerprint.AdjHash = d.u64()
	nameLen := d.u32()
	if d.err == nil && nameLen > maxEngineName {
		return corrupt("engine name length %d exceeds %d", nameLen, maxEngineName)
	}
	s.Engine = string(d.take(int(nameLen)))
	s.Phase = int64(d.u64())
	s.Cardinality = int64(d.u64())
	for _, p := range []*int64{
		&s.Stats.Phases, &s.Stats.EdgesTraversed, &s.Stats.AugPaths, &s.Stats.AugPathLen,
		&s.Stats.InitialCardinality, &s.Stats.Grafts, &s.Stats.Rebuilds,
	} {
		*p = int64(d.u64())
	}
	s.Stats.Runtime = time.Duration(d.u64())
	if s.Fingerprint.NX < 0 || s.Fingerprint.NY < 0 || s.Fingerprint.NNZ < 0 {
		return corrupt("negative dimensions in fingerprint %v", s.Fingerprint)
	}
	if n := d.u32(); d.err == nil && int32(n) != s.Fingerprint.NX {
		return corrupt("mateX length %d does not match fingerprint nx %d", n, s.Fingerprint.NX)
	}
	s.MateX = d.mates(int(s.Fingerprint.NX))
	if n := d.u32(); d.err == nil && int32(n) != s.Fingerprint.NY {
		return corrupt("mateY length %d does not match fingerprint ny %d", n, s.Fingerprint.NY)
	}
	s.MateY = d.mates(int(s.Fingerprint.NY))
	if d.err != nil {
		return corrupt("%v", d.err)
	}
	if d.off != len(body) {
		return corrupt("%d bytes of trailing garbage", len(body)-d.off)
	}
	if err := validateMates(s); err != nil {
		return corrupt("%v", err)
	}
	return s, nil
}

// mates reads n int32 mate entries. n is held against the bytes left before
// it is multiplied, so a hostile count cannot wrap 4*n on a 32-bit int.
func (d *decoder) mates(n int) []int32 {
	if d.err != nil || n < 0 {
		return nil
	}
	if n > (len(d.data)-d.off)/4 {
		d.err = fmt.Errorf("truncated at offset %d (need %d more bytes)", d.off, 4*int64(n))
		return nil
	}
	b := d.take(4 * n)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// validateMates checks range, symmetry, and the recorded cardinality —
// everything a matching invariant requires short of edge membership, which
// needs the graph and is the caller's job (graftmatch.VerifyMatching).
func validateMates(s *Snapshot) error {
	var card int64
	for x, y := range s.MateX {
		if y == -1 {
			continue
		}
		if y < 0 || int(y) >= len(s.MateY) {
			return fmt.Errorf("mateX[%d]=%d out of range", x, y)
		}
		if s.MateY[y] != int32(x) {
			return fmt.Errorf("asymmetric mates: mateX[%d]=%d but mateY[%d]=%d", x, y, y, s.MateY[y])
		}
		card++
	}
	for y, x := range s.MateY {
		if x == -1 {
			continue
		}
		if x < 0 || int(x) >= len(s.MateX) {
			return fmt.Errorf("mateY[%d]=%d out of range", y, x)
		}
		if s.MateX[x] != int32(y) {
			return fmt.Errorf("asymmetric mates: mateY[%d]=%d but mateX[%d]=%d", y, x, x, s.MateX[x])
		}
	}
	if card != s.Cardinality {
		return fmt.Errorf("recorded cardinality %d but mate arrays hold %d matches", s.Cardinality, card)
	}
	return nil
}

// Save atomically writes s into dir (created if missing) and returns the
// snapshot's path. The bytes go to a hidden temp file first, are fsynced,
// and only then renamed to their final *.ckpt name, so a crash at any point
// leaves either the complete new snapshot or no new file — never a torn one.
func Save(dir string, s *Snapshot) (string, error) {
	path, _, err := SaveMeasured(dir, s)
	return path, err
}

// SaveIO reports the I/O cost of one snapshot write, for observability:
// the encoded size and how long the durability fsync took.
type SaveIO struct {
	Bytes int64
	Fsync time.Duration
}

// SaveMeasured is Save with the write's I/O cost reported alongside the
// path. On error the SaveIO is zero.
func SaveMeasured(dir string, s *Snapshot) (string, SaveIO, error) {
	data, err := Encode(s)
	if err != nil {
		return "", SaveIO{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", SaveIO{}, fmt.Errorf("checkpoint: %w", err)
	}
	f, err := os.CreateTemp(dir, ".ck-*.tmp")
	if err != nil {
		return "", SaveIO{}, fmt.Errorf("checkpoint: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) (string, SaveIO, error) {
		f.Close()
		os.Remove(tmp)
		return "", SaveIO{}, fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	fsyncStart := time.Now()
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	io := SaveIO{Bytes: int64(len(data)), Fsync: time.Since(fsyncStart)}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", SaveIO{}, fmt.Errorf("checkpoint: %w", err)
	}
	// UnixNano in the name makes names collision-free and sortable by
	// creation order, which Prune relies on.
	final := filepath.Join(dir, fmt.Sprintf("ck-%020d.ckpt", time.Now().UnixNano()))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", SaveIO{}, fmt.Errorf("checkpoint: %w", err)
	}
	return final, io, nil
}

// Load reads and validates one snapshot file. Corruption of any kind is a
// *CorruptError carrying the path; I/O failures are returned as-is.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			ce.Path = path
		}
		return nil, err
	}
	return s, nil
}

// LoadLatest returns the best valid snapshot in dir whose fingerprint
// matches want, preferring the highest cardinality (progress is monotonic
// across restarts, so the largest matching is the newest state), breaking
// ties by file name (creation order). Corrupt or mismatched files are
// skipped — that is the fall-back-to-newest-valid behavior — but if the
// directory holds snapshot files and none survives validation, the last
// rejection is returned so callers can distinguish "nothing to resume"
// (ErrNoSnapshot) from "everything to resume is damaged".
func LoadLatest(dir string, want Fingerprint) (*Snapshot, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", ErrNoSnapshot
		}
		return nil, "", fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".ckpt" {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, "", ErrNoSnapshot
	}
	sort.Strings(names) // creation order (UnixNano names)
	var (
		best     *Snapshot
		bestPath string
		lastErr  error
	)
	for _, name := range names {
		path := filepath.Join(dir, name)
		s, err := Load(path)
		if err != nil {
			lastErr = err
			continue
		}
		if s.Fingerprint != want {
			lastErr = &MismatchError{Path: path, Want: want, Got: s.Fingerprint}
			continue
		}
		if best == nil || s.Cardinality >= best.Cardinality {
			best, bestPath = s, path
		}
	}
	if best == nil {
		return nil, "", lastErr
	}
	return best, bestPath, nil
}

// Prune removes all but the newest keep snapshots from dir (by creation
// order); keep < 1 is treated as 1. Temp files older than a minute are
// swept too — they are debris from a crash mid-write.
func Prune(dir string, keep int) error {
	if keep < 1 {
		keep = 1
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	var firstErr error
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if filepath.Ext(name) == ".tmp" {
			if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > time.Minute {
				if err := os.Remove(filepath.Join(dir, name)); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			continue
		}
		if filepath.Ext(name) == ".ckpt" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for len(names) > keep {
		if err := os.Remove(filepath.Join(dir, names[0])); err != nil && firstErr == nil {
			firstErr = err
		}
		names = names[1:]
	}
	return firstErr
}
