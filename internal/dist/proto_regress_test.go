package dist

import (
	"context"
	"fmt"
	"testing"
	"time"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/checkpoint"
	distnet "graftmatch/internal/dist/net"
	"graftmatch/internal/gen"
)

// TestFrameTypeWireValues pins the frame discriminators to their wire
// values. The iota block in proto.go is a protocol table, not a free
// enumeration: inserting or reordering a name silently renumbers every
// later frame and breaks any peer built from an older source tree.
func TestFrameTypeWireValues(t *testing.T) {
	pins := []struct {
		name string
		got  byte
		want byte
	}{
		{"fHello", fHello, 1},
		{"fWelcome", fWelcome, 2},
		{"fStep", fStep, 3},
		{"fStepDone", fStepDone, 4},
		{"fDone", fDone, 5},
		{"fAbort", fAbort, 6},
		{"fHB", fHB, 7},
	}
	for _, p := range pins {
		if p.got != p.want {
			t.Errorf("%s = %d, want wire value %d", p.name, p.got, p.want)
		}
	}
}

// rawJoin dials c as a worker would and runs the Hello/Welcome handshake by
// hand, returning the connection the coordinator attached as rank w.Rank.
func rawJoin(t *testing.T, c *Coordinator, g *bipartite.Graph) (*distnet.Conn, welcomeFrame) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cfg := distnet.Config{
		ReadTimeout:  500 * time.Millisecond,
		WriteTimeout: 500 * time.Millisecond,
	}
	conn, err := distnet.Dial(ctx, c.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello := encodeHello(helloFrame{
		Version: protoVersion,
		Rank:    0,
		FP:      checkpoint.GraphFingerprint(g),
	})
	if err := conn.Send(fHello, hello); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != fWelcome {
		t.Fatalf("handshake answered with frame type %d, want Welcome", typ)
	}
	w, err := decodeWelcome(payload)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetTimeouts(0, 500*time.Millisecond)
	return conn, w
}

// refusal dials c, sends hello, and returns the reason of the Abort the
// coordinator must answer with.
func refusal(t *testing.T, c *Coordinator, hello helloFrame) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	conn, err := distnet.Dial(ctx, c.Addr(), distnet.Config{
		ReadTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
	})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(fHello, encodeHello(hello)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := conn.Recv()
	if err != nil {
		t.Fatalf("hello %+v: %v", hello, err)
	}
	if typ != fAbort {
		t.Fatalf("hello %+v: handshake answered with frame type %d, want Abort", hello, typ)
	}
	reason, err := decodeAbort(payload)
	if err != nil {
		t.Fatal(err)
	}
	return reason
}

// TestHandshakeRefusesOtherVersion: a worker built from another protocol
// version must be refused at the handshake, not attached. A v4 worker answers
// an opCensus Step without its mates, so attaching one would kill the rank at
// every phase boundary until the recovery budget ran out.
func TestHandshakeRefusesOtherVersion(t *testing.T) {
	g := gen.ER(50, 50, 200, 9)
	opts := testClusterOpts()
	opts.Ranks = 1
	c, err := NewCoordinator(g, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, v := range []uint16{4, protoVersion + 1} {
		reason := refusal(t, c, helloFrame{Version: v, Rank: 0, FP: checkpoint.GraphFingerprint(g)})
		if want := fmt.Sprintf("protocol version %d, want %d", v, protoVersion); reason != want {
			t.Fatalf("version %d: refused with %q, want %q", v, reason, want)
		}
	}
}

// TestHandshakeRefusesRankItCannotAssign: a Hello for a rank out of range,
// or for one a live worker holds, is refused, and the coordinator goes on
// accepting joins afterwards.
func TestHandshakeRefusesRankItCannotAssign(t *testing.T) {
	g := gen.ER(50, 50, 200, 9)
	opts := testClusterOpts()
	opts.Ranks = 1
	c, err := NewCoordinator(g, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fp := checkpoint.GraphFingerprint(g)
	if got, want := refusal(t, c, helloFrame{Version: protoVersion, Rank: 1, FP: fp}), "rank 1 out of range (K=1)"; got != want {
		t.Fatalf("refused with %q, want %q", got, want)
	}
	rawJoin(t, c, g)
	if got, want := refusal(t, c, helloFrame{Version: protoVersion, Rank: 0, FP: fp}), "rank already held by a live worker"; got != want {
		t.Fatalf("refused with %q, want %q", got, want)
	}
}

// waitFailed polls until the coordinator marks rank failed, and fails the
// test if that takes longer than within.
func waitFailed(t *testing.T, c *Coordinator, rank int32, within time.Duration, why string) {
	t.Helper()
	s := c.slots[rank]
	deadline := time.Now().Add(within)
	for !s.failed.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator did not mark the rank failed within %v after %s", within, why)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPumpUnknownFrameFailsRank asserts the coordinator declares a rank
// failed when its connection delivers a frame type the protocol never
// negotiated. Versions are pinned in the handshake, so an unknown type
// mid-run is a protocol violation; it must fail the rank, not vanish into
// a silent default.
func TestPumpUnknownFrameFailsRank(t *testing.T) {
	g := gen.ER(50, 50, 200, 9)
	opts := testClusterOpts()
	opts.Ranks = 1
	c, err := NewCoordinator(g, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn, w := rawJoin(t, c, g)

	// A type the cluster protocol never assigned.
	const bogus byte = 0x7F
	if err := conn.Send(bogus, nil); err != nil {
		t.Fatal(err)
	}
	waitFailed(t, c, w.Rank, 3*time.Second, "an unknown frame type")
}

// TestLostConnectionFailsRankAtOnce: the connection is the incarnation, so
// losing it fails the rank at once — long before the 8s lease (Heartbeat
// 1s) would declare the silence.
func TestLostConnectionFailsRankAtOnce(t *testing.T) {
	g := gen.ER(50, 50, 200, 9)
	c, err := NewCoordinator(g, "127.0.0.1:0", ClusterOptions{Ranks: 1, Heartbeat: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn, w := rawJoin(t, c, g)
	conn.Close()
	waitFailed(t, c, w.Rank, time.Second, "its connection closed")
	if err := c.dead(int(w.Rank)); err == nil {
		t.Fatal("failure detector does not report the rank whose connection was lost")
	}
}
