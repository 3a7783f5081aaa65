package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"graftmatch/internal/checkpoint"
)

// allocatedBy returns the bytes fn allocated on the heap.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// frameCodecs pairs each frame type that carries a payload with its decoder
// and encoder; fDone and fHB carry none. k is the cluster width the StepDone
// decoder checks the outbox fan-out against. StepDone decodes as the
// coordinator reads it, outboxes left as raw records; Step decodes as the
// worker reads it, so its encoder rebuilds the inbox from the records the
// worker decodes one by one.
var frameCodecs = []struct {
	typ    byte
	decode func(payload []byte, k int) (any, error)
	encode func(v any) []byte
}{
	{fHello,
		func(b []byte, _ int) (any, error) { return decodeHello(b) },
		func(v any) []byte { return encodeHello(v.(helloFrame)) }},
	{fWelcome,
		func(b []byte, _ int) (any, error) { return decodeWelcome(b) },
		func(v any) []byte { return encodeWelcome(v.(welcomeFrame)) }},
	{fStep,
		func(b []byte, _ int) (any, error) { var f stepFrame; err := decodeStep(b, &f); return f, err },
		func(v any) []byte {
			f := v.(stepFrame)
			var in []message
			for i := range len(f.In) / msgSize {
				in = append(in, record(f.In, i))
			}
			f.In = appendMsgs(nil, in)
			return encodeStep(nil, &f)
		}},
	{fStepDone,
		func(b []byte, k int) (any, error) {
			var f stepDoneFrame
			err := decodeStepDone(b, k, &f)
			return f, err
		},
		func(v any) []byte { f := v.(stepDoneFrame); return encodeStepDone(nil, &f) }},
	{fAbort,
		func(b []byte, _ int) (any, error) { return decodeAbort(b) },
		func(v any) []byte { return encodeAbort(v.(string)) }},
}

// FuzzDecodeFrame holds every cluster payload decoder to three things on any
// input: it does not panic, it allocates at most 4×len(payload)+64 KiB
// whatever counts the payload claims, and a payload it accepts re-encodes
// byte for byte. Rejections are typed *ProtoErrors. Every Step the decoder
// accepts then runs through execStep on a small rank, which must return nil
// or a *ProtoError and never panic. The first argument picks the decoder (an
// index into frameCodecs), the second the cluster width 1..8 for StepDone
// and for the Step's rank (and, above bit 2, which rank it is). Run with
// `go test -fuzz=FuzzDecodeFrame ./internal/dist`; the seeds below run as a
// normal test.
func FuzzDecodeFrame(f *testing.F) {
	add := func(typ byte, k int, payload []byte) {
		for i, c := range frameCodecs {
			if c.typ == typ {
				f.Add(byte(i), byte(k-1), payload)
				return
			}
		}
		f.Fatalf("no codec for frame type %d", typ)
	}
	msgs := appendMsgs(nil, []message{{kind: 1, a: 2, b: -1, c: 40}, {kind: 3, a: 0, b: 7, c: 8}})
	add(fHello, 1, encodeHello(helloFrame{
		Version: protoVersion, Rank: -1,
		FP: checkpoint.Fingerprint{NX: 10, NY: 12, NNZ: 40, AdjHash: 0xabc},
	}))
	add(fWelcome, 1, encodeWelcome(welcomeFrame{Rank: 1, K: 4, Epoch: 2, Trace: 0xdead, HBMillis: 500, LeaseMillis: 4000}))
	add(fStep, 1, encodeStep(nil, &stepFrame{Epoch: 1, SSID: 9, Trace: 3, Op: opExpand, RenewNew: []int32{4, 7}, In: msgs}))
	add(fStep, 1, encodeStep(nil, &stepFrame{Epoch: 2, SSID: 1, Op: opScatter, MateX: []int32{1, -1}, MateY: []int32{-1, 0, -1}}))
	// Steps that execStep runs on the fuzz rank (the 8-vertex path, one
	// rank): a full scatter, a claim, an apply and aug-step walk tokens.
	path := pathMatching(fuzzN)
	add(fStep, 1, encodeStep(nil, &stepFrame{Op: opScatter, MateX: path.MateX, MateY: path.MateY}))
	add(fStep, 1, encodeStep(nil, &stepFrame{Op: opClaim, RenewNew: []int32{3}, In: appendMsgs(nil, []message{{mClaim, 0, 1, 5}, {mClaim, 7, 7, 7}})}))
	add(fStep, 1, encodeStep(nil, &stepFrame{Op: opApply, In: appendMsgs(nil, []message{{mAddFrontier, 2, 0, 0}, {mSetLeaf, 0, 7, 0}})}))
	add(fStep, 1, encodeStep(nil, &stepFrame{Op: opAugStep, In: appendMsgs(nil, []message{{mWalkY, 3, 0, 0}, {mMatchReq, 4, 3, 0}, {mMateAck, 2, 1, 0}})}))
	add(fStepDone, 2, encodeStepDone(nil, &stepDoneFrame{
		Epoch: 1, SSID: 9, Op: opCensus, Info: [2]int64{5, -6}, Dur: 1500,
		NewRenew: []int32{3}, Out: [][]byte{msgs, nil},
	}))
	add(fStepDone, 1, encodeStepDone(nil, &stepDoneFrame{Op: opReportMates, Dur: 1, Out: [][]byte{nil}, MateX: []int32{0}, MateY: []int32{0}}))
	add(fAbort, 1, encodeAbort("rank 3 died"))

	// Hostile counts that a 32-bit int used to mishandle: a negative
	// reason length, 4*n wrapping past a RenewNew count of 0x40000001 on a
	// Step and on a StepDone, and an outbox message count of 0xFFFFFFFF with
	// no messages behind it.
	add(fAbort, 1, []byte{0xf0, 0xff, 0xff, 0xff})
	step := encodeStep(nil, &stepFrame{Op: opSeed})[:25]
	step = binary.LittleEndian.AppendUint32(step, 0x40000001)
	add(fStep, 1, append(step, 0, 0, 0, 0))
	done := encodeStepDone(nil, &stepDoneFrame{Op: opSeed, Dur: 7})[:49:49]
	add(fStepDone, 1, binary.LittleEndian.AppendUint32(done, 0x40000001))
	done = binary.LittleEndian.AppendUint32(done, 0)
	done = binary.LittleEndian.AppendUint32(done, 1)
	add(fStepDone, 1, binary.LittleEndian.AppendUint32(done, 0xffffffff))

	f.Fuzz(func(t *testing.T, sel, kb byte, payload []byte) {
		c := frameCodecs[int(sel)%len(frameCodecs)]
		k := 1 + int(kb%8)
		var v any
		var err error
		alloc := allocatedBy(func() { v, err = c.decode(payload, k) })
		if limit := 4*uint64(len(payload)) + 64<<10; alloc > limit {
			t.Fatalf("frame type %d: decoding %d bytes allocated %d bytes, over the %d-byte bound", c.typ, len(payload), alloc, limit)
		}
		if err != nil {
			var pe *ProtoError
			if !errors.As(err, &pe) {
				t.Fatalf("frame type %d: error %T, want *ProtoError: %v", c.typ, err, err)
			}
			return
		}
		if re := c.encode(v); !bytes.Equal(re, payload) {
			t.Fatalf("frame type %d: accepted payload re-encodes differently:\n in %x\nout %x", c.typ, payload, re)
		}
		if c.typ == fStep {
			f := v.(stepFrame)
			execOnFuzzRank(t, &f, k, int(kb>>3)%k)
		}
	})
}

// fuzzN sizes the fuzz rank's graph: the path of 8 X and 8 Y vertices.
const fuzzN = 8

// execOnFuzzRank runs f as rank id of k on the path graph, from the path's
// near-perfect matching: execStep must return nil or a *ProtoError.
func execOnFuzzRank(t *testing.T, f *stepFrame, k, id int) {
	g := pathGraph(fuzzN)
	part := NewPartition(k, g.NX(), g.NY())
	o := ops{g: g, part: part}
	r := newRank(part, g.NX(), id)
	m := pathMatching(fuzzN)
	o.scatter(r, m.MateX[r.xlo:r.xhi], m.MateY[r.ylo:r.yhi])
	var done stepDoneFrame
	if err := execStep(o, r, f, &done); err != nil {
		var pe *ProtoError
		if !errors.As(err, &pe) {
			t.Fatalf("execStep: error %T, want *ProtoError: %v", err, err)
		}
	}
}
