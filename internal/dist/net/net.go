// Package net is the wire transport under the distributed matching runtime:
// length-framed messages over TCP or unix sockets, heartbeat-based
// peer-failure detection, and a frame-aware chaos proxy, the repo's one
// network fault model.
//
// The package knows nothing about matching: it moves (type, payload) frames
// between peers and tells its owner when a peer has gone quiet. A stream
// socket already delivers every frame in order exactly once while the
// connection lives, so there is no session layer on top: a broken
// connection is the peer's death, and the owner recovers one layer up. The
// superstep protocol, recovery state machine, and checkpoint integration
// live in internal/dist.
//
// Failure surfaces as typed errors at well-defined points instead of wedges:
// a hung peer trips a read/write deadline (*TransportError), a malformed or
// oversized frame is rejected before any size-dependent allocation
// (*FrameError, the mmio.Limits allocation-bomb pattern), and a peer that
// stops heartbeating is reported by the Monitor so the owner can abort or
// recover at a superstep barrier.
package net

import (
	"fmt"
)

// DefaultMaxFrame bounds an inbound frame's payload when Limits.MaxFrame is
// zero: large enough for a full superstep exchange on big instances, small
// enough that a hostile or corrupt length header cannot drive an
// allocation bomb.
const DefaultMaxFrame = 256 << 20 // 256 MiB

// Limits bounds what the framing layer accepts, checked before any
// size-dependent allocation so corrupt or hostile length headers fail fast
// instead of exhausting memory — the same policy-before-allocation pattern
// as mmio.Limits. The zero value applies the package defaults.
type Limits struct {
	// MaxFrame caps one frame's payload in bytes; 0 means DefaultMaxFrame.
	MaxFrame int
}

func (l Limits) maxFrame() int {
	if l.MaxFrame > 0 {
		return l.MaxFrame
	}
	return DefaultMaxFrame
}

// FrameError reports an oversized inbound frame: a length header beyond
// Limits.MaxFrame. It is not transient — the stream is unsynchronized and
// the connection must be torn down.
type FrameError struct {
	Reason string
	Size   int64 // declared payload size, when the error is about size
}

func (e *FrameError) Error() string {
	if e.Size > 0 {
		return fmt.Sprintf("distnet: bad frame: %s (%d bytes)", e.Reason, e.Size)
	}
	return "distnet: bad frame: " + e.Reason
}

// TransportError wraps an I/O failure on the wire: a read/write deadline
// expiry (Timeout), a broken connection, a dial failure. It is transient: a
// fresh connection may succeed where this one failed, so a supervisor
// retries rather than degrading.
type TransportError struct {
	Op      string // "read", "write", "dial", "accept"
	Timeout bool
	Err     error
}

func (e *TransportError) Error() string {
	if e.Timeout {
		return fmt.Sprintf("distnet: %s deadline exceeded: %v", e.Op, e.Err)
	}
	return fmt.Sprintf("distnet: %s: %v", e.Op, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// Transient marks the error retryable: the worker's join loop retries it in
// place.
func (e *TransportError) Transient() bool { return true }

// PeerDownError reports a peer declared dead by heartbeat monitoring: no
// frame arrived for MissedFor, past the monitor's deadline. For a worker
// rank this is the split-brain guard — a rank cut off from its coordinator
// must abort rather than compute on alone.
type PeerDownError struct {
	Peer      int
	MissedFor string // human-readable silence duration
}

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("distnet: peer %d down (no frame for %s)", e.Peer, e.MissedFor)
}

// Transient marks the error retryable at the cluster level: the peer may be
// respawned and the run recovered by epoch rollback, every rank restarting
// from the last phase-boundary matching.
func (e *PeerDownError) Transient() bool { return true }
