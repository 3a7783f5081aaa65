package net

import (
	"bufio"
	"encoding/binary"
	"errors"
	gonet "net"
	"sync"
	"time"
)

// Config tunes a framed connection.
type Config struct {
	// Limits bounds inbound frames; the zero value applies defaults.
	Limits Limits

	// ReadTimeout is the per-frame read deadline: a peer that goes silent
	// for longer surfaces as a transient *TransportError instead of a
	// wedged Recv. Heartbeats keep a healthy link under the deadline.
	// 0 disables the deadline.
	ReadTimeout time.Duration

	// WriteTimeout is the per-frame write deadline: a peer that stops
	// draining its socket surfaces as a transient *TransportError instead
	// of a blocked Send. 0 disables the deadline.
	WriteTimeout time.Duration
}

// Conn is a framed, deadline-guarded connection: Send writes one typed
// frame, Recv reads one. Send is safe for concurrent use (heartbeaters and
// the protocol driver share the link); Recv is owned by a single reader.
type Conn struct {
	c   gonet.Conn
	cfg Config
	br  *bufio.Reader

	wmu  sync.Mutex
	hdr  [headerSize]byte
	vec  [2][]byte // header and payload of the frame being sent
	bufs gonet.Buffers

	rbuf []byte
}

// NewConn wraps an accepted or dialed connection.
func NewConn(c gonet.Conn, cfg Config) *Conn {
	return &Conn{c: c, cfg: cfg, br: bufio.NewReaderSize(c, 64<<10)}
}

// Send writes one frame. Write failures and deadline expiries are transient
// *TransportErrors.
func (c *Conn) Send(typ byte, payload []byte) error {
	// wmu exists to serialize whole-frame writes: the I/O under it is the
	// point, and the write deadline bounds how long the lock can be held.
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.cfg.WriteTimeout > 0 {
		if err := c.c.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout)); err != nil {
			return &TransportError{Op: "write", Err: err}
		}
	}
	// One vectored write sends the header and the payload as they are,
	// without copying the payload. The vector lives in the Conn, so a
	// send allocates nothing. An empty payload writes the header alone.
	c.hdr[0] = typ
	binary.BigEndian.PutUint32(c.hdr[1:], uint32(len(payload)))
	c.vec = [2][]byte{c.hdr[:], payload}
	c.bufs = c.vec[:1+min(len(payload), 1)]
	if _, err := c.bufs.WriteTo(c.c); err != nil {
		return classify("write", err)
	}
	return nil
}

// Recv reads one frame. The payload aliases an internal buffer and is valid
// only until the next Recv. Deadline expiry (a silent peer) is a transient
// *TransportError; an oversized or malformed frame is a *FrameError and the
// connection must be closed — the stream is unsynchronized.
func (c *Conn) Recv() (byte, []byte, error) {
	if c.cfg.ReadTimeout > 0 {
		if err := c.c.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout)); err != nil {
			return 0, nil, &TransportError{Op: "read", Err: err}
		}
	}
	typ, payload, buf, err := readFrame(c.br, c.cfg.Limits, c.rbuf)
	c.rbuf = buf
	if err != nil {
		var fe *FrameError
		if errors.As(err, &fe) {
			return 0, nil, fe
		}
		return 0, nil, classify("read", err)
	}
	return typ, payload, nil
}

// SetTimeouts replaces the per-frame deadlines (0 disables one). Handshakes
// want tight deadlines while a silent peer means "gone"; once lease-based
// watchdogs own liveness the read deadline usually comes off. Not safe
// concurrently with an active Send or Recv — call it between protocol
// stages, before the conn carries run traffic.
func (c *Conn) SetTimeouts(read, write time.Duration) {
	// Disabling a timeout must also disarm any deadline the previous stage
	// left on the socket — Send/Recv only arm deadlines when a timeout is
	// configured, so a stale one would fire mid-run otherwise.
	if read <= 0 && c.cfg.ReadTimeout > 0 {
		_ = c.c.SetReadDeadline(time.Time{})
	}
	if write <= 0 && c.cfg.WriteTimeout > 0 {
		_ = c.c.SetWriteDeadline(time.Time{})
	}
	c.cfg.ReadTimeout, c.cfg.WriteTimeout = read, write
}

// Close tears the connection down; pending Sends and Recvs unblock with
// errors.
func (c *Conn) Close() error { return c.c.Close() }

// RemoteAddr names the peer, for logs.
func (c *Conn) RemoteAddr() string {
	if a := c.c.RemoteAddr(); a != nil {
		return a.String()
	}
	return "?"
}

// classify wraps an I/O error as a transient *TransportError, tagging
// deadline expiries so callers can distinguish "peer silent" from "peer
// gone".
func classify(op string, err error) error {
	var ne gonet.Error
	timeout := errors.As(err, &ne) && ne.Timeout()
	return &TransportError{Op: op, Timeout: timeout, Err: err}
}
