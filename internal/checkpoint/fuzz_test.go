package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
)

// allocatedBy returns the bytes fn allocated on the heap.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// reseal returns a copy of data with its CRC trailer recomputed, so a
// mutation reaches the snapshot body instead of dying at the CRC check.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) >= 4 {
		body := out[:len(out)-4]
		binary.LittleEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
	}
	return out
}

// FuzzDecode holds the snapshot decoder to three things on any input, CRC
// re-sealed: it does not panic, it allocates at most 4×len(input)+64 KiB
// whatever counts the input claims, and a snapshot it accepts re-encodes
// byte for byte. Rejections are typed *CorruptErrors. Run with
// `go test -fuzz=FuzzDecode ./internal/checkpoint`; the seeds below run as
// a normal test.
func FuzzDecode(f *testing.F) {
	empty := &Snapshot{Engine: "MS-BFS-Graft"}
	one := &Snapshot{
		Fingerprint: Fingerprint{NX: 1, NY: 1, NNZ: 1, AdjHash: 0xfeed},
		Engine:      "HK",
		MateX:       []int32{-1},
		MateY:       []int32{-1},
	}
	pair := &Snapshot{
		Fingerprint: Fingerprint{NX: 3, NY: 2, NNZ: 4, AdjHash: 7},
		Engine:      "PF",
		Phase:       2,
		Cardinality: 2,
		Stats:       CumulativeStats{Phases: 2, EdgesTraversed: 9, AugPaths: 2, Runtime: 5},
		MateX:       []int32{1, -1, 0},
		MateY:       []int32{2, 0},
	}
	for _, s := range []*Snapshot{empty, one, pair} {
		data, err := Encode(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A 1×1 snapshot whose nx and mateX count claim 0x40000001 entries: on
	// a 32-bit int, 4*n wraps to 4 and the decoder used to pass the bytes
	// check and then ask makeslice for 4 GiB.
	bomb, err := Encode(one)
	if err != nil {
		f.Fatal(err)
	}
	binary.LittleEndian.PutUint32(bomb[8:], 0x40000001)
	mateXCountOff := 4 + 4 + 4 + 4 + 8 + 8 + 4 + len(one.Engine) + 8 + 8 + 8*8
	binary.LittleEndian.PutUint32(bomb[mateXCountOff:], 0x40000001)
	f.Add(bomb)

	f.Fuzz(func(t *testing.T, data []byte) {
		data = reseal(data)
		var s *Snapshot
		var err error
		alloc := allocatedBy(func() { s, err = Decode(data) })
		if limit := 4*uint64(len(data)) + 64<<10; alloc > limit {
			t.Fatalf("Decode of %d bytes allocated %d bytes, over the %d-byte bound", len(data), alloc, limit)
		}
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("error %T, want *CorruptError: %v", err, err)
			}
			return
		}
		re, err := Encode(s)
		if err != nil {
			t.Fatalf("accepted snapshot does not encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted snapshot re-encodes differently:\n in %x\nout %x", data, re)
		}
	})
}
