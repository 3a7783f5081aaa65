package net

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	gonet "net"
	"testing"
	"time"

	"graftmatch/internal/leaktest"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

// connPair returns two framed conns over a real loopback TCP connection.
func connPair(t *testing.T, cfg Config) (*Conn, *Conn) {
	t.Helper()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type acc struct {
		c   gonet.Conn
		err error
	}
	ch := make(chan acc, 1)
	go func() {
		c, err := ln.Accept()
		ch <- acc{c, err}
	}()
	cl, err := gonet.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	c1, c2 := NewConn(cl, cfg), NewConn(a.c, cfg)
	t.Cleanup(func() { c1.Close(); c2.Close() })
	return c1, c2
}

func TestFrameRoundTrip(t *testing.T) {
	c1, c2 := connPair(t, Config{})
	payload := []byte("tree grafting")
	if err := c1.Send(7, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != 7 || string(got) != string(payload) {
		t.Fatalf("got type %d payload %q", typ, got)
	}
	// Empty payloads are legal frames (heartbeats).
	if err := c2.Send(9, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err = c1.Recv()
	if err != nil || typ != 9 || len(got) != 0 {
		t.Fatalf("empty frame: type %d payload %q err %v", typ, got, err)
	}
}

func TestOversizedFrameRejectedTyped(t *testing.T) {
	// The receiver caps frames below what the sender emits: the length
	// header alone must reject the frame before any allocation.
	c1, c2 := connPair(t, Config{})
	c2.cfg.Limits = Limits{MaxFrame: 16}
	if err := c1.Send(1, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	_, _, err := c2.Recv()
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FrameError", err)
	}
	if fe.Size != 64 {
		t.Fatalf("FrameError.Size = %d, want 64", fe.Size)
	}
	// A declared length with the top bit set is rejected the same way, not
	// read as a negative int on a 32-bit platform.
	hostile := []byte{1, 0xf0, 0, 0, 0}
	if _, _, _, err := readFrame(bytes.NewReader(hostile), Limits{MaxFrame: 16}, nil); !errors.As(err, &fe) {
		t.Fatalf("length 0xf0000000: got %v, want *FrameError", err)
	}
}

func TestMalformedHeaderIsError(t *testing.T) {
	// A peer that writes garbage shorter than a header yields an I/O error,
	// not a hang or panic.
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = c.Write([]byte{0x01, 0x00}) //lint:ignore err-checked test peer writes a deliberately truncated header
		c.Close()
	}()
	cl, err := gonet.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c := NewConn(cl, Config{})
	if _, _, err := c.Recv(); err == nil {
		t.Fatal("truncated header did not error")
	}
	<-done
}

func TestReadDeadlineSurfacesTransient(t *testing.T) {
	c1, _ := connPair(t, Config{ReadTimeout: 30 * time.Millisecond})
	_, _, err := c1.Recv()
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("got %v, want *TransportError", err)
	}
	if !te.Timeout || !te.Transient() {
		t.Fatalf("deadline expiry should be a transient timeout, got %+v", te)
	}
}

func TestBackoffJitteredAndCapped(t *testing.T) {
	b := &Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Seed: 1}
	want := []time.Duration{10, 20, 40, 80, 80, 80} // nominal (pre-jitter) ladder, ms
	for i, nominal := range want {
		nominal *= time.Millisecond
		d := b.Next()
		if d < nominal/2 || d > nominal {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", i, d, nominal/2, nominal)
		}
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		b := &Backoff{Base: time.Millisecond, Max: 16 * time.Millisecond, Seed: seed}
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = b.Next()
		}
		return out
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMonitorExpiry(t *testing.T) {
	const lease = 200 * time.Millisecond
	m := NewMonitor()
	m.Touch(0)
	m.Touch(1)
	if s, ok := m.Silence(0, time.Now()); !ok || s > lease {
		t.Fatalf("fresh peer: Silence(0) = %v, %v", s, ok)
	}
	// Keep peer 1 chatty while peer 0 goes silent past the lease.
	for start := time.Now(); time.Since(start) < lease+50*time.Millisecond; {
		time.Sleep(20 * time.Millisecond)
		m.Touch(1)
	}
	now := time.Now()
	if s, ok := m.Silence(0, now); !ok || s <= lease {
		t.Fatalf("silent peer: Silence(0) = %v, %v; want > %v", s, ok, lease)
	}
	if s, ok := m.Silence(1, now); !ok || s > lease {
		t.Fatalf("chatty peer: Silence(1) = %v, %v; want <= %v", s, ok, lease)
	}
	m.Forget(0)
	if _, ok := m.Silence(0, now); ok {
		t.Fatal("Forget(0) left peer 0 tracked")
	}
}

func TestHeartbeatFlows(t *testing.T) {
	c1, c2 := connPair(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Heartbeat(ctx, c1, 0x20, 10*time.Millisecond)
	}()
	for i := 0; i < 3; i++ {
		typ, payload, err := c2.Recv()
		if err != nil {
			t.Fatalf("heartbeat %d never arrived: %v", i, err)
		}
		if typ != 0x20 || len(payload) != 0 {
			t.Fatalf("heartbeat %d: type %d payload %q", i, typ, payload)
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Heartbeat goroutine did not exit on ctx cancel")
	}
}

// TestConnCloseUnblocksRecv: a Recv blocked on a silent peer returns a
// *TransportError once the conn is closed. A worker's lease watchdog relies
// on this to stop the step loop.
func TestConnCloseUnblocksRecv(t *testing.T) {
	c1, _ := connPair(t, Config{})
	errc := make(chan error, 1)
	go func() {
		_, _, err := c1.Recv()
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c1.Close()
	select {
	case err := <-errc:
		var te *TransportError
		if !errors.As(err, &te) {
			t.Fatalf("Recv after Close: got %v, want *TransportError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Recv")
	}
}

// TestProxyPartitionStallsThenHeals: frames sent during a partition, and the
// sender's close after them, cross only once the partition heals, and then
// in order.
func TestProxyPartitionStallsThenHeals(t *testing.T) {
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	proxy, err := NewProxy(ln.Addr().String(), Chaos{Seed: 9, Latency: time.Millisecond, Jitter: 2 * time.Millisecond}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	client, err := Dial(context.Background(), proxy.Addr(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	raw, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	server := NewConn(raw, Config{})
	defer server.Close()

	type frame struct {
		typ byte
		seq int
		err error
	}
	got := make(chan frame, 64)
	go func() {
		for {
			typ, payload, err := server.Recv()
			if err != nil {
				got <- frame{err: err}
				return
			}
			got <- frame{typ: typ, seq: int(binary.LittleEndian.Uint64(payload))}
		}
	}()

	proxy.SetPartition(true)
	const n = 20
	for i := 0; i < n; i++ {
		if err := client.Send(1, binary.LittleEndian.AppendUint64(nil, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	select {
	case f := <-got:
		t.Fatalf("crossed an active partition: %+v", f)
	case <-time.After(100 * time.Millisecond):
	}
	if fwd := proxy.Stats().Forwarded; fwd != 0 {
		t.Fatalf("proxy forwarded %d frames during a partition", fwd)
	}

	proxy.SetPartition(false)
	timeout := time.After(10 * time.Second)
	for i := 0; i <= n; i++ {
		select {
		case f := <-got:
			if i == n {
				if f.err == nil {
					t.Fatalf("frame %+v after the sender closed", f)
				}
				return
			}
			if f.err != nil || f.typ != 1 || f.seq != i {
				t.Fatalf("frame %d: got %+v", i, f)
			}
		case <-timeout:
			t.Fatalf("only %d of %d frames (and the close) crossed after the partition healed", i, n)
		}
	}
}

func TestNetworkGuess(t *testing.T) {
	for addr, want := range map[string]string{
		"127.0.0.1:9000": "tcp",
		"host:1":         "tcp",
		"/tmp/x.sock":    "unix",
		"./rank0.sock":   "unix",
		"@abstract":      "unix",
	} {
		if got := Network(addr); got != want {
			t.Fatalf("Network(%q) = %q, want %q", addr, got, want)
		}
	}
}
