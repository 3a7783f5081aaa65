package dist

import (
	"encoding/binary"
	"fmt"
	"slices"

	"graftmatch/internal/checkpoint"
)

// protoVersion gates the cluster wire protocol; a worker and coordinator
// must agree exactly (the Hello/Welcome handshake checks). v2 added the
// run-trace context (Welcome trace id, trace ids on superstep frames). v3
// dropped the reliable session (sequence prefixes, ack frames) and the Hello
// nonce: every frame travels directly on the connection, and the connection
// is the worker incarnation. v4 put the worker's compute time on StepDone
// and dropped the telemetry frame and the Hello send timestamp. v5 moved the
// census onto the phase boundary: an opCensus Step now answers with the
// rank's mates as well as its census, and opReportMates ends only the last
// phase.
const protoVersion = 5

// Frame types on a cluster link. Hello and Welcome open a fresh connection;
// everything else follows on the same connection.
const (
	fHello    byte = iota + 1 // 1: worker → coordinator: version, rank wanted, graph fingerprint
	fWelcome                  // 2: coordinator → worker: assigned rank, K, epoch, heartbeat/lease terms
	fStep                     // 3: coordinator → worker: one superstep order with routed inbox
	fStepDone                 // 4: worker → coordinator: outboxes, census info, new renewable roots, compute time
	fDone                     // 5: coordinator → worker: run complete, exit cleanly
	fAbort                    // 6: either direction: fatal condition, carries the reason
	fHB                       // 7: heartbeat, empty payload
)

// Superstep op codes, the coordinator-driven counterpart of the ops methods.
// The worker is entirely op-driven: it holds rank state and executes what it
// is told, while every global decision (frontier emptiness, the graft/rebuild
// choice, termination, recovery) lives on the coordinator.
const (
	opScatter     byte = iota + 1 // load mate arrays, reset all derived state
	opSeed                        // root trees at owned unmatched X
	opExpand                      // BFS expand: frontier → claims
	opClaim                       // BFS claim: resolve Y ownership
	opApply                       // BFS apply: install frontier/leaf updates
	opAugInit                     // start augmenting walks at renewable roots
	opAugStep                     // advance token-passing walks
	opCensus                      // phase boundary with a graft decision due: census plus report-mates
	opGraftQuery                  // freed Y query neighbors' owners
	opGraftAccept                 // active X owners accept queries
	opGraftAdopt                  // freed Y adopt first acceptance
	opGraftApply                  // install post-adoption frontier/leaf updates
	opRebuild                     // destroy active trees, reseed from unmatched
	opReportMates                 // return the rank's mate arrays (the last phase's boundary)
)

// msgSize is one message record on the wire: the kind byte, then a, b and c
// as little-endian int32s. Inboxes and outboxes travel as runs of records,
// and the coordinator routes them as bytes without reading one.
const msgSize = 13

// opNames maps op codes to the names of the rank spans in the cluster
// trace. Index 0 and out-of-range ops render as "op?" rather than faulting
// on a garbage byte.
var opNames = [...]string{
	opScatter:     "scatter",
	opSeed:        "seed",
	opExpand:      "expand",
	opClaim:       "claim",
	opApply:       "apply",
	opAugInit:     "aug-init",
	opAugStep:     "aug-step",
	opCensus:      "census",
	opGraftQuery:  "graft-query",
	opGraftAccept: "graft-accept",
	opGraftAdopt:  "graft-adopt",
	opGraftApply:  "graft-apply",
	opRebuild:     "rebuild",
	opReportMates: "report-mates",
}

// opSpanName returns the trace span name for an op code.
func opSpanName(op byte) string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "op?"
}

// ProtoError reports a malformed cluster frame: truncated, oversized counts,
// unknown discriminators. It is terminal for the link that produced it — a
// peer speaking garbage is not retried against.
type ProtoError struct {
	Frame  string
	Reason string
}

func (e *ProtoError) Error() string {
	return fmt.Sprintf("dist: malformed %s frame: %s", e.Frame, e.Reason)
}

// helloFrame opens a worker's connection: which rank it wants (-1 for any)
// and the fingerprint of the graph it loaded — both sides must be looking
// at the same problem.
type helloFrame struct {
	Version uint16
	Rank    int32 // requested rank; -1 means "assign me one"
	FP      checkpoint.Fingerprint
}

// welcomeFrame answers a Hello: the assigned rank, the cluster width, the
// epoch the worker joins at, the run trace id every spilled span inherits,
// and the failure-detection terms the worker must obey.
type welcomeFrame struct {
	Rank        int32
	K           int32
	Epoch       uint64
	Trace       uint64 // run/trace id minted by the coordinator
	HBMillis    uint32 // heartbeat send interval
	LeaseMillis uint32 // coordinator silence after which the worker aborts
}

// stepFrame orders one superstep: the op to run, the renewable roots merged
// since the worker's last step, and the routed inbox. Scatter steps carry
// the mate arrays for the worker's block instead of an inbox. Trace echoes
// the run trace id so a captured frame is self-identifying.
type stepFrame struct {
	Epoch    uint64
	SSID     uint64
	Trace    uint64
	Op       byte
	RenewNew []int32
	In       []byte  // message records, msgSize bytes each
	MateX    []int32 // opScatter only
	MateY    []int32 // opScatter only
}

// stepDoneFrame reports a superstep: per-destination outboxes, the roots that
// turned renewable, the op's scalar results in Info (frontier size, paths,
// census counts), and Dur, the worker's compute time for the op. The phase
// boundary's census and report-mates steps carry the block's mate arrays.
type stepDoneFrame struct {
	Epoch    uint64
	SSID     uint64
	Trace    uint64
	Op       byte
	Info     [2]int64
	Dur      int64 // nanoseconds the worker spent executing the op
	NewRenew []int32
	Out      [][]byte // per destination: message records, msgSize bytes each
	MateX    []int32  // opCensus and opReportMates only
	MateY    []int32  // opCensus and opReportMates only

	// Arrived is the coordinator's clock (UnixNano) when its pump read the
	// frame; it is not on the wire. The rank's span is [Arrived−Dur,
	// Arrived], on the coordinator's clock, so it needs no clock offset.
	Arrived int64
}

// --- encoding -------------------------------------------------------------

func putU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func putI32(b []byte, v int32) []byte  { return putU32(b, uint32(v)) }
func putI64(b []byte, v int64) []byte  { return putU64(b, uint64(v)) }

func putI32s(b []byte, s []int32) []byte {
	b = putU32(b, uint32(len(s)))
	for _, v := range s {
		b = putI32(b, v)
	}
	return b
}

// putRecords appends a run of message records behind its count.
func putRecords(b, recs []byte) []byte {
	b = putU32(b, uint32(len(recs)/msgSize))
	return append(b, recs...)
}

// appendMsgs appends ms as message records.
func appendMsgs(b []byte, ms []message) []byte {
	for _, m := range ms {
		b = append(b, m.kind)
		b = putI32(b, m.a)
		b = putI32(b, m.b)
		b = putI32(b, m.c)
	}
	return b
}

// record decodes the i-th message record of recs.
func record(recs []byte, i int) message {
	rec := recs[i*msgSize : (i+1)*msgSize]
	return message{
		kind: rec[0],
		a:    int32(binary.LittleEndian.Uint32(rec[1:])),
		b:    int32(binary.LittleEndian.Uint32(rec[5:])),
		c:    int32(binary.LittleEndian.Uint32(rec[9:])),
	}
}

func encodeHello(h helloFrame) []byte {
	b := make([]byte, 0, 32)
	b = putU16(b, h.Version)
	b = putI32(b, h.Rank)
	b = putI32(b, h.FP.NX)
	b = putI32(b, h.FP.NY)
	b = putI64(b, h.FP.NNZ)
	b = putU64(b, h.FP.AdjHash)
	return b
}

func encodeWelcome(w welcomeFrame) []byte {
	b := make([]byte, 0, 32)
	b = putI32(b, w.Rank)
	b = putI32(b, w.K)
	b = putU64(b, w.Epoch)
	b = putU64(b, w.Trace)
	b = putU32(b, w.HBMillis)
	b = putU32(b, w.LeaseMillis)
	return b
}

// encodeStep appends into buf (reused across supersteps by the coordinator).
func encodeStep(buf []byte, f *stepFrame) []byte {
	b := buf[:0]
	b = putU64(b, f.Epoch)
	b = putU64(b, f.SSID)
	b = putU64(b, f.Trace)
	b = append(b, f.Op)
	b = putI32s(b, f.RenewNew)
	b = putRecords(b, f.In)
	b = putI32s(b, f.MateX)
	b = putI32s(b, f.MateY)
	return b
}

// encodeStepDone appends into buf (reused across supersteps by the worker).
func encodeStepDone(buf []byte, f *stepDoneFrame) []byte {
	b := buf[:0]
	b = putU64(b, f.Epoch)
	b = putU64(b, f.SSID)
	b = putU64(b, f.Trace)
	b = append(b, f.Op)
	b = putI64(b, f.Info[0])
	b = putI64(b, f.Info[1])
	b = putI64(b, f.Dur)
	b = putI32s(b, f.NewRenew)
	b = putU32(b, uint32(len(f.Out)))
	for _, box := range f.Out {
		b = putRecords(b, box)
	}
	b = putI32s(b, f.MateX)
	b = putI32s(b, f.MateY)
	return b
}

func encodeAbort(reason string) []byte {
	b := make([]byte, 0, 4+len(reason))
	b = putU32(b, uint32(len(reason)))
	return append(b, reason...)
}

// --- decoding -------------------------------------------------------------

// pr is a bounds-latched little-endian reader: the first short read trips
// bad, every later read returns zero values, and finish reports one typed
// error for the whole frame. Element counts are validated against the bytes
// actually present before any count-sized allocation happens — the same
// allocation-bomb discipline as mmio.Limits, applied to the wire.
type pr struct {
	b    []byte
	off  int
	bad  bool
	why  string
	name string
}

func newPR(name string, b []byte) *pr { return &pr{b: b, name: name} }

func (r *pr) fail(why string) {
	if !r.bad {
		r.bad = true
		r.why = why
	}
}

func (r *pr) need(n int) bool {
	if r.bad {
		return false
	}
	if len(r.b)-r.off < n {
		r.fail("truncated")
		return false
	}
	return true
}

func (r *pr) u8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *pr) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *pr) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *pr) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *pr) i32() int32 { return int32(r.u32()) }
func (r *pr) i64() int64 { return int64(r.u64()) }

// fits reports whether n elements of size bytes each fit in the rest of the
// frame, and fails the frame with why when they do not. The product is taken
// in uint64, so a hostile count can neither turn negative nor wrap on a
// 32-bit int.
func (r *pr) fits(n uint32, size uint64, why string) bool {
	if r.bad {
		return false
	}
	if uint64(n)*size > uint64(len(r.b)-r.off) {
		r.fail(why)
		return false
	}
	return true
}

// i32s decodes a counted int32 array into dst's storage, growing it only
// when the count outgrows it.
func (r *pr) i32s(dst []int32) []int32 {
	n := r.u32()
	if !r.fits(n, 4, "element count exceeds frame") {
		return dst[:0]
	}
	dst = slices.Grow(dst[:0], int(n))[:n]
	for i := range dst {
		dst[i] = r.i32()
	}
	return dst
}

// records returns a counted run of message records as a subslice of the
// frame: the count is checked against the bytes present, and nothing is
// copied or decoded.
func (r *pr) records() []byte {
	n := r.u32()
	if !r.fits(n, msgSize, "message count exceeds frame") {
		return nil
	}
	end := r.off + int(n)*msgSize
	recs := r.b[r.off:end:end]
	r.off = end
	return recs
}

// finish validates the frame consumed exactly: trailing garbage is as
// malformed as truncation.
func (r *pr) finish() error {
	if !r.bad && r.off != len(r.b) {
		r.fail("trailing bytes")
	}
	if r.bad {
		return &ProtoError{Frame: r.name, Reason: r.why}
	}
	return nil
}

func decodeHello(b []byte) (helloFrame, error) {
	r := newPR("hello", b)
	h := helloFrame{
		Version: r.u16(),
		Rank:    r.i32(),
		FP: checkpoint.Fingerprint{
			NX: r.i32(), NY: r.i32(), NNZ: r.i64(), AdjHash: r.u64(),
		},
	}
	return h, r.finish()
}

func decodeWelcome(b []byte) (welcomeFrame, error) {
	r := newPR("welcome", b)
	w := welcomeFrame{
		Rank:        r.i32(),
		K:           r.i32(),
		Epoch:       r.u64(),
		Trace:       r.u64(),
		HBMillis:    r.u32(),
		LeaseMillis: r.u32(),
	}
	return w, r.finish()
}

// decodeStep decodes a Step payload into f, reusing f's arrays. f.In
// aliases b: the worker decodes and checks the records against its rank
// (checkStep) before it runs the op.
func decodeStep(b []byte, f *stepFrame) error {
	r := newPR("step", b)
	f.Epoch = r.u64()
	f.SSID = r.u64()
	f.Trace = r.u64()
	f.Op = r.u8()
	f.RenewNew = r.i32s(f.RenewNew)
	f.In = r.records()
	f.MateX = r.i32s(f.MateX)
	f.MateY = r.i32s(f.MateY)
	if !r.bad && (f.Op < opScatter || f.Op > opReportMates) {
		r.fail("unknown op")
	}
	return r.finish()
}

// decodeStepDone decodes a StepDone payload into f, reusing f's arrays, and
// validates the outbox fan-out against the cluster width K. The outboxes
// alias b: the coordinator routes them as they are.
func decodeStepDone(b []byte, k int, f *stepDoneFrame) error {
	r := newPR("stepdone", b)
	f.Epoch = r.u64()
	f.SSID = r.u64()
	f.Trace = r.u64()
	f.Op = r.u8()
	f.Info[0] = r.i64()
	f.Info[1] = r.i64()
	f.Dur = r.i64()
	f.NewRenew = r.i32s(f.NewRenew)
	nOut := int(r.u32())
	if !r.bad && nOut != k {
		r.fail(fmt.Sprintf("outbox fan-out %d, want %d", nOut, k))
	}
	f.Out = f.Out[:0]
	if !r.bad {
		for range nOut {
			f.Out = append(f.Out, r.records())
		}
	}
	f.MateX = r.i32s(f.MateX)
	f.MateY = r.i32s(f.MateY)
	return r.finish()
}

func decodeAbort(b []byte) (string, error) {
	r := newPR("abort", b)
	n := r.u32()
	if !r.fits(n, 1, "reason length exceeds frame") {
		return "", r.finish()
	}
	reason := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return reason, r.finish()
}
