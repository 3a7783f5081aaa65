package dist

import (
	"context"
	"encoding/binary"
	"errors"
	gonet "net"
	"testing"
	"time"

	"graftmatch/internal/bipartite"
	distnet "graftmatch/internal/dist/net"
	"graftmatch/internal/matching"
)

// The payload builders below write the wire layout byte by byte rather than
// through the codec, so these tests state the layout they feed the worker
// and the coordinator independently of the code under test.

func rawI32s(b []byte, s []int32) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	for _, v := range s {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

func rawRecords(b []byte, ms []message) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ms)))
	for _, m := range ms {
		b = append(b, m.kind)
		b = binary.LittleEndian.AppendUint32(b, uint32(m.a))
		b = binary.LittleEndian.AppendUint32(b, uint32(m.b))
		b = binary.LittleEndian.AppendUint32(b, uint32(m.c))
	}
	return b
}

// rawStep is a Step payload: epoch 0, the given superstep id, trace 0.
type rawStep struct {
	op           byte
	renew        []int32
	in           []message
	mateX, mateY []int32
}

func (s rawStep) payload(ssid uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, 0)
	b = binary.LittleEndian.AppendUint64(b, ssid)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = append(b, s.op)
	b = rawI32s(b, s.renew)
	b = rawRecords(b, s.in)
	b = rawI32s(b, s.mateX)
	return rawI32s(b, s.mateY)
}

// rawStepDone is a StepDone payload with k empty outboxes.
func rawStepDone(op byte, k int, newRenew, mateX, mateY []int32) []byte {
	b := binary.LittleEndian.AppendUint64(nil, 0)
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = append(b, op)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = rawI32s(b, newRenew)
	b = binary.LittleEndian.AppendUint32(b, uint32(k))
	for range k {
		b = binary.LittleEndian.AppendUint32(b, 0)
	}
	b = rawI32s(b, mateX)
	return rawI32s(b, mateY)
}

// TestHostileStepsFailTyped feeds a real worker, rank 0 of 2 on the 8-vertex
// path (it owns X 0-3 and Y 0-3), well-framed Steps that name vertices it
// cannot index, or records its op does not read. Each must end the worker
// with a *ProtoError, never a panic. Forged walk tokens whose vertices are in
// range cannot be told from real ones by their fields; the worker must carry
// them to an end and answer, neither indexing with a missing tree edge nor
// circling a forged loop forever.
func TestHostileStepsFailTyped(t *testing.T) {
	const n = 8
	g := pathGraph(n)
	m := pathMatching(n)
	scatter := rawStep{op: opScatter, mateX: m.MateX[:n/2], mateY: m.MateY[:n/2]}
	cases := []struct {
		name    string
		steps   []rawStep // scatter first, the hostile order last
		wantErr bool
	}{
		{"claim of a Y past the graph", []rawStep{{op: opClaim, in: []message{{mClaim, 1 << 20, 1, 1}}}}, true},
		{"claim of a Y another rank owns", []rawStep{{op: opClaim, in: []message{{mClaim, 5, 1, 1}}}}, true},
		{"claim for a negative root", []rawStep{{op: opClaim, in: []message{{mClaim, 0, 1, -1}}}}, true},
		{"claim from an X past the graph", []rawStep{{op: opClaim, in: []message{{mClaim, 0, n, 1}}}}, true},
		{"leaf for a root another rank owns", []rawStep{{op: opApply, in: []message{{mSetLeaf, 6, 0, 0}}}}, true},
		{"leaf at a Y past the graph", []rawStep{{op: opApply, in: []message{{mSetLeaf, 0, n, 0}}}}, true},
		{"claim record in an apply inbox", []rawStep{{op: opApply, in: []message{{mClaim, 0, 1, 1}}}}, true},
		{"any record in an expand inbox", []rawStep{{op: opExpand, in: []message{{mClaim, 0, 1, 1}}}}, true},
		{"record of an unknown kind", []rawStep{{op: opAugStep, in: []message{{200, 0, 0, 0}}}}, true},
		{"match request for an X another rank owns", []rawStep{{op: opAugStep, in: []message{{mMatchReq, 5, 0, 0}}}}, true},
		{"mate ack naming an X past the graph", []rawStep{{op: opAugStep, in: []message{{mMateAck, 0, -7, 0}}}}, true},
		{"renewable root past X", []rawStep{{op: opSeed, renew: []int32{n}}}, true},
		{"negative renewable root", []rawStep{{op: opSeed, renew: []int32{-2}}}, true},
		{"scatter mate past Y", []rawStep{{op: opScatter, mateX: []int32{n, 0, 1, 2}, mateY: m.MateY[:n/2]}}, true},
		{"scatter mate below none", []rawStep{{op: opScatter, mateX: m.MateX[:n/2], mateY: []int32{-2, 2, 3, 4}}}, true},
		{"walk token at a Y with no tree parent", []rawStep{{op: opAugStep, in: []message{{mWalkY, 0, 0, 0}}}}, false},
		{"walk token circling a forged loop", []rawStep{
			{op: opClaim, in: []message{{mClaim, 0, 1, 3}}},
			{op: opAugStep, in: []message{{mWalkY, 0, 3, 0}}},
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := driveWorker(t, g, 2, append([]rawStep{scatter}, tc.steps...))
			var pe *ProtoError
			switch {
			case tc.wantErr && !errors.As(err, &pe):
				t.Fatalf("worker returned %v, want a *ProtoError", err)
			case !tc.wantErr && err != nil:
				t.Fatalf("worker returned %v, want a clean run", err)
			}
		})
	}
}

// driveWorker plays coordinator to one real worker, rank 0 of k: it sends
// the steps in order and, as long as the worker answers, ends the run with
// Done. It returns what RunWorker returned.
func driveWorker(t *testing.T, g *bipartite.Graph, k int32, steps []rawStep) error {
	t.Helper()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	exited := make(chan error, 1)
	go func() {
		exited <- RunWorker(ctx, WorkerOptions{Addr: ln.Addr().String(), Rank: -1, G: g, HandshakeTimeout: 5 * time.Second})
	}()
	raw, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	conn := distnet.NewConn(raw, distnet.Config{ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second})
	defer conn.Close()
	if typ, _, err := conn.Recv(); err != nil || typ != fHello {
		t.Fatalf("expected a Hello, got type %d: %v", typ, err)
	}
	if err := conn.Send(fWelcome, encodeWelcome(welcomeFrame{Rank: 0, K: k, HBMillis: 1000, LeaseMillis: 10000})); err != nil {
		t.Fatal(err)
	}
	for i, s := range steps {
		if err := conn.Send(fStep, s.payload(uint64(i+1))); err != nil {
			break // the worker already hung up
		}
		if typ, _ := nextFrame(conn); typ != fStepDone {
			select {
			case err := <-exited:
				return err
			case <-time.After(5 * time.Second):
				t.Fatalf("step %d (%s): the worker neither answered nor exited", i+1, opSpanName(s.op))
			}
		}
	}
	_ = conn.Send(fDone, nil)
	select {
	case err := <-exited:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("the worker did not exit after Done")
	}
	return nil
}

// TestPumpRejectsOutOfRange: the coordinator routes records unread, so what
// it does read from a StepDone — the new renewable roots it broadcasts and
// the mates it copies into lastGood — is range-checked by the pump. A frame
// that fails is a garbled worker, and a garbled worker is a dead one.
func TestPumpRejectsOutOfRange(t *testing.T) {
	const n = 8
	g := pathGraph(n)
	m := pathMatching(n)
	cases := []struct {
		name    string
		payload []byte
	}{
		{"renewable root past X", rawStepDone(opApply, 1, []int32{n}, nil, nil)},
		{"negative renewable root", rawStepDone(opApply, 1, []int32{-1}, nil, nil)},
		{"mates on an expand answer", rawStepDone(opExpand, 1, nil, m.MateX, m.MateY)},
		{"short mate block", rawStepDone(opReportMates, 1, nil, m.MateX[:n-1], m.MateY)},
		{"mate past Y", rawStepDone(opReportMates, 1, nil, append([]int32{n}, m.MateX[1:]...), m.MateY)},
		{"mate below none", rawStepDone(opCensus, 1, nil, m.MateX, append([]int32{-3}, m.MateY[1:]...))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := testClusterOpts()
			opts.Ranks = 1
			c, err := NewCoordinator(g, "127.0.0.1:0", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			conn, w := rawJoin(t, c, g)
			if err := conn.Send(fStepDone, tc.payload); err != nil {
				t.Fatal(err)
			}
			waitFailed(t, c, w.Rank, 3*time.Second, "a StepDone with "+tc.name)
		})
	}
}

// TestStepRejectsAnswerToAnotherOp: a StepDone with the order's epoch and
// superstep id but another op is a garbled worker too. Its rank dies, and the
// coordinator closes the connection instead of sending the next order.
func TestStepRejectsAnswerToAnotherOp(t *testing.T) {
	const n = 8
	g := pathGraph(n)
	opts := testClusterOpts()
	opts.Ranks = 1
	c, err := NewCoordinator(g, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn, _ := rawJoin(t, c, g)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		_, _ = c.Run(ctx, matching.New(n, n))
	}()
	defer func() { cancel(); <-ran }()

	typ, _ := nextFrame(conn)
	if typ != fStep {
		t.Fatalf("first order: frame type %d, want a Step", typ)
	}
	// The scatter of epoch 0, superstep 1, answered as a seed.
	if err := conn.Send(fStepDone, rawStepDone(opSeed, 1, nil, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if typ, payload := nextFrame(conn); typ == fStep {
		t.Fatalf("the coordinator sent the next order (op %s) after an answer to another op", opSpanName(payload[24]))
	}
}

// nextFrame reads past heartbeats to the peer's next frame; a closed
// connection reads as frame type 0.
func nextFrame(conn *distnet.Conn) (byte, []byte) {
	for {
		typ, payload, err := conn.Recv()
		if err != nil {
			return 0, nil
		}
		if typ != fHB {
			return typ, payload
		}
	}
}
