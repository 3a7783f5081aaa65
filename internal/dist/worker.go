package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/checkpoint"
	distnet "graftmatch/internal/dist/net"
)

// WorkerOptions configures one rank process of a multi-process cluster run.
type WorkerOptions struct {
	// Addr is the coordinator's listen address (TCP "host:port" or a unix
	// socket path).
	Addr string

	// Rank requests a specific rank id; -1 lets the coordinator assign one.
	// Respawned replacements request the rank they replace.
	Rank int

	// G is the worker's copy of the graph. Every process loads the same
	// input; the Hello/Welcome handshake cross-checks fingerprints.
	G *bipartite.Graph

	// Limits bounds inbound frames; the zero value uses the package default.
	Limits distnet.Limits

	// HandshakeTimeout bounds one Hello/Welcome exchange; 0 means 10s. A
	// timed-out attempt is retried within JoinWait, so this only sets how
	// fast a dead attempt is abandoned.
	HandshakeTimeout time.Duration

	// JoinWait bounds the initial join as a whole (dialing plus handshake,
	// retried on transient failure, so a worker may start before its
	// coordinator); 0 means 2m.
	JoinWait time.Duration

	// OnAttach, when non-nil, is called after the successful handshake with
	// the assigned rank. Tests use it; the CLI logs it.
	OnAttach func(rank int)
}

// workerLink is the handshake result: a connected conn plus the terms the
// coordinator granted.
type workerLink struct {
	conn    *distnet.Conn
	welcome welcomeFrame
}

// helloTimeout bounds one handshake exchange; a coordinator that accepts
// the connection but never answers the Hello is treated as down.
const helloTimeout = 10 * time.Second

// join dials the coordinator once and runs the Hello/Welcome handshake on
// the fresh connection. The coordinator's first frame on it is Welcome or
// Abort; anything else is a *ProtoError.
func join(ctx context.Context, opts WorkerOptions, fp checkpoint.Fingerprint) (workerLink, error) {
	ht := opts.HandshakeTimeout
	if ht <= 0 {
		ht = helloTimeout
	}
	cfg := distnet.Config{
		Limits:       opts.Limits,
		ReadTimeout:  ht,
		WriteTimeout: ht,
	}
	conn, err := distnet.Dial(ctx, opts.Addr, cfg)
	if err != nil {
		return workerLink{}, err
	}
	hello := encodeHello(helloFrame{
		Version: protoVersion,
		Rank:    int32(opts.Rank),
		FP:      fp,
	})
	if err := conn.Send(fHello, hello); err != nil {
		_ = conn.Close()
		return workerLink{}, err
	}
	typ, payload, err := conn.Recv()
	if err != nil {
		_ = conn.Close()
		return workerLink{}, err
	}
	switch typ {
	case fWelcome:
		w, err := decodeWelcome(payload)
		if err != nil {
			_ = conn.Close()
			return workerLink{}, err
		}
		// Handshake done: the lease watchdog owns liveness from here, so
		// the tight per-frame read deadline comes off.
		conn.SetTimeouts(0, ht)
		return workerLink{conn: conn, welcome: w}, nil
	case fAbort:
		reason, derr := decodeAbort(payload)
		_ = conn.Close()
		if derr != nil {
			return workerLink{}, derr
		}
		return workerLink{}, fmt.Errorf("dist: coordinator refused join: %s", reason)
	default:
		_ = conn.Close()
		return workerLink{}, &ProtoError{Frame: "welcome", Reason: fmt.Sprintf("handshake answered with frame type %d", typ)}
	}
}

// transientErr reports whether err marks itself transient through a
// Transient() bool method, as *distnet.TransportError does.
func transientErr(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// initialJoin retries the join for up to JoinWait as long as failures stay
// transient: the coordinator may not be listening yet. A refusal (wrong
// fingerprint, rank taken) is final and returns at once.
func initialJoin(ctx context.Context, opts WorkerOptions, fp checkpoint.Fingerprint) (workerLink, error) {
	jw := opts.JoinWait
	if jw <= 0 {
		jw = 2 * time.Minute
	}
	joinCtx, cancel := context.WithTimeout(ctx, jw)
	defer cancel()
	var bo distnet.Backoff
	for {
		link, err := join(joinCtx, opts, fp)
		if err == nil {
			return link, nil
		}
		if !transientErr(err) || joinCtx.Err() != nil {
			return workerLink{}, err
		}
		select {
		case <-joinCtx.Done():
			return workerLink{}, err
		case <-time.After(bo.Next()):
		}
	}
}

// RunWorker joins the cluster at opts.Addr and executes superstep orders
// until the coordinator declares the run complete (nil), aborts it (error),
// or falls silent past its own granted lease — in which case the worker
// aborts with a *net.PeerDownError rather than computing on in a minority
// partition. A lost connection ends the worker with its *net.TransportError:
// the connection is the incarnation, and the coordinator recovers the rank
// with a replacement.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.G == nil {
		return fmt.Errorf("dist: worker needs a graph")
	}
	fp := checkpoint.GraphFingerprint(opts.G)
	link, err := initialJoin(ctx, opts, fp)
	if err != nil {
		return err
	}
	conn, w := link.conn, link.welcome
	if w.K < 1 || w.Rank < 0 || w.Rank >= w.K {
		_ = conn.Close()
		return &ProtoError{Frame: "welcome", Reason: fmt.Sprintf("rank %d of %d", w.Rank, w.K)}
	}
	if opts.OnAttach != nil {
		opts.OnAttach(int(w.Rank))
	}

	part := NewPartition(int(w.K), opts.G.NX(), opts.G.NY())
	r := newRank(part, opts.G.NX(), int(w.Rank))
	o := ops{g: opts.G, part: part}

	hb := time.Duration(w.HBMillis) * time.Millisecond
	lease := time.Duration(w.LeaseMillis) * time.Millisecond
	if hb <= 0 {
		hb = time.Second
	}
	if lease < 2*hb {
		lease = 2 * hb
	}

	// One deferred teardown, in this order: stop the helpers, close the
	// connection, then wait for them, so a finished worker returns at once.
	runCtx, cancel := context.WithCancelCause(ctx)
	var wg sync.WaitGroup
	defer func() {
		cancel(nil)
		_ = conn.Close()
		wg.Wait()
	}()

	// lastHeard is the lease clock: any frame from the coordinator renews it.
	// The watchdog goroutine aborts the run when the lease expires — the
	// split-brain guard: a worker cut off from the coordinator kills itself
	// while the majority side recovers, so two live processes never both
	// believe they are rank w.Rank.
	var heardMu sync.Mutex
	lastHeard := time.Now()
	heard := func() {
		heardMu.Lock()
		lastHeard = time.Now()
		heardMu.Unlock()
	}
	silence := func() time.Duration {
		heardMu.Lock()
		defer heardMu.Unlock()
		return time.Since(lastHeard)
	}

	wg.Add(2)
	go func() { // heartbeats keep the coordinator's failure detector fed
		defer wg.Done()
		distnet.Heartbeat(runCtx, conn, fHB, hb)
	}()

	go func() { // lease watchdog; closing the conn unblocks the step loop's Recv
		defer wg.Done()
		defer func() { _ = conn.Close() }()
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-t.C:
				if s := silence(); s > lease {
					cancel(&distnet.PeerDownError{Peer: -1, MissedFor: s.String()}) //lint:ignore hotpath-alloc lease-expiry exit, at most once per run
					return
				}
			}
		}
	}()

	// ended prefers the reason the run was stopped (lease expiry, ctx) over
	// the I/O error that stopping it caused.
	ended := func(err error) error {
		if cause := context.Cause(runCtx); cause != nil {
			return cause
		}
		return err
	}

	// The Step, the response and its encoding are decoded into and built
	// in the same storage every round.
	epoch := w.Epoch
	var (
		step    stepFrame
		done    stepDoneFrame
		doneBuf []byte
	)
	for {
		typ, payload, err := conn.Recv()
		if err != nil {
			return ended(err)
		}
		heard()
		switch typ {
		case fHB:
			// lease renewal only
		case fDone:
			return nil
		case fAbort:
			reason, derr := decodeAbort(payload)
			if derr != nil {
				return derr
			}
			return fmt.Errorf("dist: coordinator aborted run: %s", reason) //lint:ignore hotpath-alloc abort exit of the step loop
		case fStep:
			if err := decodeStep(payload, &step); err != nil {
				return err
			}
			if step.Epoch < epoch {
				continue // stale order from before a recovery; already superseded
			}
			epoch = step.Epoch
			t0 := time.Now()
			if err := execStep(o, r, &step, &done); err != nil {
				return err
			}
			done.Dur = int64(time.Since(t0))
			doneBuf = encodeStepDone(doneBuf, &done)
			if err := conn.Send(fStepDone, doneBuf); err != nil {
				return ended(err)
			}
		default:
			return &ProtoError{Frame: "step", Reason: fmt.Sprintf("unexpected frame type %d", typ)} //lint:ignore hotpath-alloc protocol-violation exit, never taken on a healthy run
		}
	}
}

// execStep runs one superstep order against the rank state and fills done
// with the response, reusing done's arrays: the op's scalar results, the
// newly renewable roots, and the outboxes drained from the rank as message
// records. checkStep turns a hostile order away before anything touches the
// rank. Schedule ops go to ops.exec; scatter and the phase boundary's mate
// reports exist only here. The census rides the boundary of every phase but
// the last, so a census order also reports the mates.
func execStep(o ops, r *rank, f *stepFrame, done *stepDoneFrame) error {
	if err := o.checkStep(r, f); err != nil {
		return err
	}
	o.mergeRenewable(r, f.RenewNew)
	done.Epoch, done.SSID, done.Trace, done.Op = f.Epoch, f.SSID, f.Trace, f.Op
	done.Info = [2]int64{}
	done.MateX, done.MateY = nil, nil
	switch f.Op {
	case opScatter:
		o.scatter(r, f.MateX, f.MateY)
	case opSeed, opExpand, opClaim, opApply, opAugInit, opAugStep,
		opGraftQuery, opGraftAccept, opGraftAdopt, opGraftApply, opRebuild:
		done.Info, _ = o.exec(r, f.Op, r.in)
	case opCensus, opReportMates:
		if f.Op == opCensus {
			done.Info, _ = o.exec(r, opCensus, nil)
		}
		done.MateX, done.MateY = r.mateX, r.mateY
	default:
		return stepError(fmt.Sprintf("unknown op %d", f.Op))
	}
	done.NewRenew = takeNewRenewable(r, done.NewRenew[:0])
	if len(done.Out) != len(r.out) {
		done.Out = make([][]byte, len(r.out))
	}
	for dst := range r.out {
		done.Out[dst] = appendMsgs(done.Out[dst][:0], r.out[dst])
		r.out[dst] = r.out[dst][:0]
	}
	return nil
}

// checkStep returns a *ProtoError for an order whose execution could index
// outside the rank, before anything touches the rank: a renewable root that
// is not an X vertex, a scatter mate outside its side's range, or an inbox
// record of a kind the op does not consume (inKinds) or naming a vertex out
// of range, or not owned where the op indexes it (msgArgs). It decodes the
// inbox into r.in as it checks it.
func (o ops) checkStep(r *rank, f *stepFrame) error {
	nx, ny := o.g.NX(), o.g.NY()
	if i := outside(f.RenewNew, 0, nx); i >= 0 {
		return stepError(fmt.Sprintf("renewable root %d outside [0, %d)", f.RenewNew[i], nx))
	}
	if f.Op == opScatter {
		if len(f.MateX) != int(r.xhi-r.xlo) || len(f.MateY) != int(r.yhi-r.ylo) {
			return stepError(fmt.Sprintf("scatter sizes (%d,%d), want (%d,%d)", len(f.MateX), len(f.MateY), r.xhi-r.xlo, r.yhi-r.ylo))
		}
		if i := outside(f.MateX, none, ny); i >= 0 {
			return stepError(fmt.Sprintf("scatter mate %d of X %d outside [-1, %d)", f.MateX[i], r.xlo+int32(i), ny))
		}
		if i := outside(f.MateY, none, nx); i >= 0 {
			return stepError(fmt.Sprintf("scatter mate %d of Y %d outside [-1, %d)", f.MateY[i], r.ylo+int32(i), nx))
		}
	}
	r.in = r.in[:0]
	kinds := inKinds[f.Op]
	for i := range len(f.In) / msgSize {
		m := record(f.In, i)
		if int(m.kind) >= len(msgArgs) || kinds&(1<<m.kind) == 0 {
			return badRecord(f.Op, m, "a kind the op does not consume")
		}
		args := &msgArgs[m.kind]
		if !r.holds(args[0], m.a, nx, ny) || !r.holds(args[1], m.b, nx, ny) || !r.holds(args[2], m.c, nx, ny) {
			return badRecord(f.Op, m, "a vertex out of range or not owned")
		}
		r.in = append(r.in, m)
	}
	return nil
}

// holds reports whether v can fill a message field of the given role on r.
func (r *rank) holds(role uint8, v, nx, ny int32) bool {
	switch role {
	case argX:
		return 0 <= v && v < nx
	case argY:
		return 0 <= v && v < ny
	case argOwnX:
		return r.xlo <= v && v < r.xhi
	case argOwnY:
		return r.ylo <= v && v < r.yhi
	default: // argNone: the field is not read
		return true
	}
}

// outside returns the index of the first value of s outside [lo, hi), or -1.
func outside(s []int32, lo, hi int32) int {
	for i, v := range s {
		if v < lo || v >= hi {
			return i
		}
	}
	return -1
}

func stepError(reason string) error { return &ProtoError{Frame: "step", Reason: reason} }

// badRecord describes an inbox record checkStep rejected.
func badRecord(op byte, m message, why string) error {
	return stepError(fmt.Sprintf("%s inbox: record {%d %d %d %d}: %s", opSpanName(op), m.kind, m.a, m.b, m.c, why))
}
