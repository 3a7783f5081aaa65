package dist

import (
	"context"
	"fmt"
	gonet "net"
	"sync"
	"sync/atomic"
	"time"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/checkpoint"
	distnet "graftmatch/internal/dist/net"
	"graftmatch/internal/matching"
	"graftmatch/internal/obs"
)

// ClusterOptions configures a Coordinator, the process that owns the global
// loop of a real multi-process distributed run.
type ClusterOptions struct {
	// Ranks is the cluster width K: the worker processes the run needs.
	Ranks int

	// Alpha is the graft-decision threshold, as in Options; 0 means 5.
	Alpha float64

	// Grafting toggles tree-grafting frontier reconstruction.
	Grafting bool

	// Heartbeat is the keepalive interval both directions; 0 means 500ms.
	Heartbeat time.Duration

	// Lease is the silence after which a peer is declared dead: the
	// coordinator declares a rank dead and recovers, a worker declares the
	// coordinator dead and aborts (the split-brain minority rule). 0 means
	// 8× Heartbeat.
	Lease time.Duration

	// HandshakeTimeout bounds one raw Hello/Welcome exchange; 0 means 10s.
	HandshakeTimeout time.Duration

	// Respawn, when non-nil, is called on the driver goroutine when a rank
	// is declared dead; it must arrange for a replacement worker to dial in
	// requesting that rank (exec a process, start a goroutine). When nil the
	// coordinator still waits rejoinWait (30s) for an externally supervised
	// replacement.
	Respawn func(rank int) error

	// CheckpointDir, when set, persists the phase-boundary matching via
	// internal/checkpoint, and resumes from the freshest compatible snapshot
	// on start.
	CheckpointDir string

	// Limits bounds inbound frames; the zero value uses the package default.
	Limits distnet.Limits

	// Recorder, when non-nil, receives the superstep, message and phase
	// counters, the cluster health metrics (rank deaths, recoveries,
	// recovery duration), one span per rank per superstep on that rank's
	// trace lane, and the per-rank /cluster snapshot at phase boundaries.
	Recorder *obs.Recorder

	// OnPhase, when non-nil, runs on the driver goroutine after every phase
	// with the phase count and current cardinality.
	OnPhase func(phase, cardinality int64)
}

// rejoinWait bounds how long a recovery waits for the replacement worker to
// dial in before the run fails; it also bounds the wait for the initial K
// joins at Run.
const rejoinWait = 30 * time.Second

// maxRecoveries bounds rank-death recoveries per run.
const maxRecoveries = 8

func (o ClusterOptions) withDefaults() ClusterOptions {
	if o.Ranks < 1 {
		o.Ranks = 1
	}
	if o.Alpha <= 0 {
		o.Alpha = 5
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 500 * time.Millisecond
	}
	if o.Lease <= 0 {
		o.Lease = 8 * o.Heartbeat
	}
	if o.Lease < 2*o.Heartbeat {
		o.Lease = 2 * o.Heartbeat
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = helloTimeout
	}
	return o
}

// ClusterStats extends the distributed cost model of Stats with the run's
// trace id and failure/recovery history.
type ClusterStats struct {
	Stats

	// Trace is the run's trace id (16-hex), minted at coordinator start and
	// propagated to every rank in the Welcome; every span of the run
	// carries it.
	Trace string

	// RankDeaths counts workers declared dead (a lost connection, an
	// expired lease, or an abort); Recoveries counts epoch rollbacks that
	// followed; RecoveryTime is their summed duration from death
	// declaration to restarted phase loop.
	RankDeaths   int64
	Recoveries   int64
	RecoveryTime time.Duration

	// Attaches counts connections accepted into a rank: K for a fault-free
	// run, plus one per replacement.
	Attaches int64

	// Deprecated: a lost connection is a rank death, recovered by epoch
	// rollback; nothing reconnects. Always zero.
	Reconnects int64

	// Deprecated: frames ride the stream socket directly; nothing
	// retransmits. Always zero.
	Retransmits int64
}

// slot is the coordinator's view of one rank: whichever worker incarnation
// currently owns it — one incarnation is one connection — and the decoded
// responses.
type slot struct {
	rank int

	mu     sync.Mutex
	conn   *distnet.Conn // current incarnation; nil while the slot is vacant
	pumped chan struct{} // closed when the current incarnation's pump exits
	failed atomic.Bool   // current connection broke, or carried an abort or garbage

	// frames carries decoded StepDone frames from the pump to the driver.
	// Capacity covers the lockstep protocol's maximum in-flight responses
	// plus stale leftovers across an epoch change. free carries them back
	// once Run's loop is done with them, for the pump to decode the next
	// frame into. A frame buffer moves only through these two channels, so
	// whichever goroutine holds it owns it: a buried incarnation's pump can
	// never write a buffer Run's loop is reading.
	frames chan *rxFrame
	free   chan *rxFrame

	// The rank's /cluster row, driver-owned: the driver folds in every
	// gathered superstep and every death, and exports the row itself.
	steps, latSum, latMax, deaths int64 // latSum and latMax in ns of compute
}

// rxFrame is one StepDone as a pump received it: a copy of the payload and
// the frame decoded over it, whose outboxes alias the copy.
type rxFrame struct {
	stepDoneFrame
	raw []byte
}

// take returns a frame buffer from the free list, or a new one while the
// slot's first frames are still out.
func (s *slot) take() *rxFrame {
	select {
	case rx := <-s.free:
		return rx
	default:
		return new(rxFrame)
	}
}

// recycle hands a frame buffer back to the slot's pumps; when the free list
// is full the buffer is dropped.
func (s *slot) recycle(rx *rxFrame) {
	select {
	case s.free <- rx:
	default:
	}
}

// fail marks the slot failed if conn is still its current connection. A
// buried incarnation's conn is closed on purpose, possibly after its
// replacement joined, and must not fail the replacement.
func (s *slot) fail(conn *distnet.Conn) {
	s.mu.Lock()
	if s.conn == conn {
		s.failed.Store(true)
	}
	s.mu.Unlock()
}

// attached reports whether an incarnation holds the slot.
func (s *slot) attached() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn != nil
}

// Coordinator drives a multi-process distributed run: it listens for worker
// joins, broadcasts superstep orders, routes the resulting messages, detects
// rank failure by a lost connection or heartbeat silence, and recovers by
// respawning the rank and rolling every rank back to the last phase-boundary
// matching. It is not itself a rank — ranks 0..K-1 all live in worker
// processes.
type Coordinator struct {
	g    *bipartite.Graph
	part Partition
	opts ClusterOptions
	fp   checkpoint.Fingerprint

	ln     gonet.Listener
	slots  []*slot
	mu     sync.Mutex    // guards handshake slot assignment
	joined chan struct{} // one buffered wake-up: a handshake attached a rank
	epoch  atomic.Uint64
	trace  uint64 // run trace id, minted at construction, immutable after

	mon *distnet.Monitor

	lifeCtx    context.Context
	lifeCancel context.CancelFunc
	wg         sync.WaitGroup
	closeOnce  sync.Once

	// Driver-owned superstep state (no locking: single driver goroutine).
	// lastGood is the recovery anchor: the matching gathered at the last
	// phase boundary, which every epoch rescatters. tick is the run's one
	// liveness ticker, read by every gather. inboxes hold each rank's next
	// inbox as message records; results holds the last step's frames until
	// the next step hands them back to their slots.
	ssid     uint64
	tick     *time.Ticker
	inboxes  [][]byte
	results  []*rxFrame
	renewNew []int32
	stepBuf  []byte
	spans    []obs.Span // one rank span per slot; nil without a tracer
	lastGood *matching.Matching

	stats    ClusterStats
	attaches atomic.Int64 // handshake goroutines bump this; folded into stats at run end

	rec                             *obs.Recorder
	mSupersteps, mMessages, mPhases *obs.Counter
	mDeaths, mRecoveries, mRecMilli *obs.Counter
}

// NewCoordinator starts listening on addr (TCP "host:port" or a unix socket
// path; ":0" picks a free port — see Addr). Workers can join immediately;
// the run starts at Run.
func NewCoordinator(g *bipartite.Graph, addr string, opts ClusterOptions) (*Coordinator, error) {
	opts = opts.withDefaults()
	ln, err := gonet.Listen(distnet.Network(addr), addr)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		g:      g,
		part:   NewPartition(opts.Ranks, g.NX(), g.NY()),
		opts:   opts,
		fp:     checkpoint.GraphFingerprint(g),
		ln:     ln,
		joined: make(chan struct{}, 1),
		mon:    distnet.NewMonitor(),
	}
	c.slots = make([]*slot, c.part.K)
	for i := range c.slots {
		c.slots[i] = &slot{rank: i, frames: make(chan *rxFrame, 8), free: make(chan *rxFrame, 2)} //lint:ignore hotpath-alloc constructor setup: K slots allocated once per coordinator
	}
	c.inboxes = make([][]byte, c.part.K)
	c.results = make([]*rxFrame, c.part.K)
	c.lifeCtx, c.lifeCancel = context.WithCancel(context.Background())
	c.trace = obs.NewTraceID()
	c.rec = opts.Recorder.WithTrace(c.trace)
	if c.rec.Tracer() != nil {
		c.spans = make([]obs.Span, c.part.K)
	}
	c.mSupersteps = c.rec.Counter("graftmatch_cluster_supersteps_total", "BSP superstep rounds broadcast to the cluster")
	c.mMessages = c.rec.Counter("graftmatch_cluster_messages_total", "point-to-point messages routed plus collective broadcast volume")
	c.mPhases = c.rec.Counter("graftmatch_cluster_phases_total", "completed distributed search phases")
	c.mDeaths = c.rec.Counter("graftmatch_cluster_rank_deaths_total", "workers declared dead by a lost connection, heartbeat silence or abort")
	c.mRecoveries = c.rec.Counter("graftmatch_cluster_recoveries_total", "epoch rollbacks recovering a dead rank")
	c.mRecMilli = c.rec.Counter("graftmatch_cluster_recovery_millis_total", "milliseconds spent in rank-death recovery")
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr is the coordinator's bound listen address — what workers dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close tears the cluster down: listener, connections, loops.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		c.lifeCancel()
		_ = c.ln.Close()
		for _, s := range c.slots {
			s.mu.Lock()
			conn := s.conn
			s.conn = nil
			s.mu.Unlock()
			if conn != nil {
				_ = conn.Close()
			}
		}
	})
	c.wg.Wait()
	return nil
}

// --- join handshake -------------------------------------------------------

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		raw, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go c.handshake(raw)
	}
}

// handshake runs the Hello/Welcome exchange on a fresh connection and either
// attaches it to a slot as a new incarnation or refuses it with a typed
// Abort.
func (c *Coordinator) handshake(raw gonet.Conn) {
	defer c.wg.Done()
	conn := distnet.NewConn(raw, distnet.Config{
		Limits:       c.opts.Limits,
		ReadTimeout:  c.opts.HandshakeTimeout,
		WriteTimeout: c.opts.HandshakeTimeout,
	})
	refuse := func(reason string) {
		_ = conn.Send(fAbort, encodeAbort(reason))
		_ = conn.Close()
	}
	typ, payload, err := conn.Recv()
	if err != nil || typ != fHello {
		refuse("expected hello")
		return
	}
	h, err := decodeHello(payload)
	if err != nil {
		refuse(err.Error())
		return
	}
	if h.Version != protoVersion {
		refuse(fmt.Sprintf("protocol version %d, want %d", h.Version, protoVersion))
		return
	}
	if h.FP != c.fp {
		refuse(fmt.Sprintf("graph fingerprint %v, want %v", h.FP, c.fp))
		return
	}

	c.mu.Lock()
	s, reason := c.assign(h)
	if s == nil {
		c.mu.Unlock()
		refuse(reason)
		return
	}
	s.mu.Lock()
	c.mu.Unlock()
	if c.lifeCtx.Err() != nil {
		// Close has already swept the slots: a connection installed now
		// would never be closed, and its pump would never exit.
		s.mu.Unlock()
		refuse("coordinator closed")
		return
	}
	welcome := encodeWelcome(welcomeFrame{
		Rank:        int32(s.rank),
		K:           int32(c.part.K),
		Epoch:       c.epoch.Load(),
		Trace:       c.trace,
		HBMillis:    uint32(c.opts.Heartbeat / time.Millisecond),
		LeaseMillis: uint32(c.opts.Lease / time.Millisecond),
	})
	// The slot stays locked through Welcome + attach so a racing handshake
	// for the same rank cannot interleave: the write is bounded by the
	// handshake write deadline, never indefinite.
	if err := conn.Send(fWelcome, welcome); err != nil {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	conn.SetTimeouts(0, c.opts.HandshakeTimeout)
	pumped := make(chan struct{})
	s.conn = conn
	s.pumped = pumped
	s.failed.Store(false)
	s.mu.Unlock()
	c.attaches.Add(1)
	c.mon.Touch(s.rank)
	select {
	case c.joined <- struct{}{}:
	default: // a wake-up is already pending; the driver recounts the slots
	}
	c.wg.Add(2)
	go c.pump(s, conn, pumped)
	go func() {
		defer c.wg.Done()
		distnet.Heartbeat(c.lifeCtx, conn, fHB, c.opts.Heartbeat)
	}()
}

// assign picks the slot for a Hello, or explains the refusal. Called with
// c.mu held; returns with the choice made but nothing mutated. A slot is
// free only once the driver has buried its last incarnation: a replacement
// must join through recovery, which rescatters every rank.
func (c *Coordinator) assign(h helloFrame) (*slot, string) {
	if h.Rank >= int32(len(c.slots)) {
		return nil, fmt.Sprintf("rank %d out of range (K=%d)", h.Rank, len(c.slots))
	}
	if h.Rank >= 0 {
		s := c.slots[h.Rank]
		if s.attached() {
			return nil, "rank already held by a live worker"
		}
		return s, ""
	}
	for _, s := range c.slots {
		if !s.attached() {
			return s, ""
		}
	}
	return nil, "cluster full"
}

// pump drains one incarnation's connection: heartbeats feed the failure
// detector, and each StepDone, decoded into a buffer from the slot's free
// list, goes to Run's loop. Whatever ends it — a read error, an Abort, a
// garbled or unexpected frame — is the incarnation's death, marked at once
// unless the slot has already moved on.
func (c *Coordinator) pump(s *slot, conn *distnet.Conn, pumped chan struct{}) {
	defer c.wg.Done()
	defer close(pumped)
	defer s.fail(conn)
	for {
		typ, payload, err := conn.Recv()
		if err != nil {
			return
		}
		c.mon.Touch(s.rank)
		switch typ {
		case fHB:
			// liveness only
		case fStepDone:
			arrived := time.Now().UnixNano()
			rx := s.take()
			rx.raw = append(rx.raw[:0], payload...)
			if decodeStepDone(rx.raw, c.part.K, &rx.stepDoneFrame) != nil || !c.doneInRange(s.rank, &rx.stepDoneFrame) {
				return // a garbled worker is a dead worker
			}
			rx.Arrived = arrived
			select {
			case s.frames <- rx:
			case <-c.lifeCtx.Done():
				return
			}
		case fAbort:
			return
		default:
			// A frame the coordinator never expects mid-run — a Hello after
			// the handshake, an echoed coordinator-bound frame, a type this
			// version never negotiated — is a protocol violation, not future
			// growth: versions are pinned in the handshake, so a same-epoch
			// peer can never legitimately send an unknown type. Fail the
			// rank rather than let misrouted traffic vanish.
			return
		}
	}
}

// doneInRange reports whether what a StepDone hands the coordinator besides
// routed records is in range, before any of it is broadcast or enters
// lastGood: its new renewable roots are X vertices rank owns, and only a
// phase-boundary frame carries mates, exactly rank's blocks of them, each a
// vertex of the other side or none.
func (c *Coordinator) doneInRange(rank int, f *stepDoneFrame) bool {
	xlo, xhi := c.part.RangeX(rank)
	ylo, yhi := c.part.RangeY(rank)
	nx, ny := int(xhi-xlo), int(yhi-ylo)
	if f.Op != opCensus && f.Op != opReportMates {
		nx, ny = 0, 0
	}
	return outside(f.NewRenew, xlo, xhi) < 0 &&
		len(f.MateX) == nx && len(f.MateY) == ny &&
		outside(f.MateX, none, c.g.NY()) < 0 && outside(f.MateY, none, c.g.NX()) < 0
}

// exportCluster publishes the per-rank snapshot behind /cluster: liveness,
// deaths, and the supersteps gathered from each rank with their compute
// times. Called on the driver at phase boundaries and run end.
func (c *Coordinator) exportCluster() {
	if c.rec == nil {
		return
	}
	cs := obs.ClusterSnapshot{
		Trace:      obs.TraceHex(c.trace),
		Epoch:      int64(c.epoch.Load()),
		Supersteps: c.stats.Supersteps,
		Recoveries: c.stats.Recoveries,
		Ranks:      make([]obs.RankStatus, c.part.K),
		UpdatedAt:  time.Now().UnixNano(),
	}
	for i, s := range c.slots {
		cs.Ranks[i] = obs.RankStatus{
			Rank:             i,
			Alive:            s.attached(),
			Deaths:           s.deaths,
			Steps:            s.steps,
			StepLatencySumNS: s.latSum,
			StepLatencyMaxNS: s.latMax,
		}
	}
	c.rec.SetCluster(cs)
}

// --- superstep driver -----------------------------------------------------

// errRankDead tags a gather failure with the rank to recover.
type errRankDead struct {
	rank int
	err  error
}

func (e *errRankDead) Error() string { return fmt.Sprintf("rank %d: %v", e.rank, e.err) }
func (e *errRankDead) Unwrap() error { return e.err }

// dead reports whether the failure detector currently declares rank dead.
func (c *Coordinator) dead(rank int) error {
	s := c.slots[rank]
	if s.failed.Load() {
		return &distnet.PeerDownError{Peer: rank, MissedFor: "connection lost"}
	}
	if silence, ok := c.mon.Silence(rank, time.Now()); ok && silence > c.opts.Lease {
		return &distnet.PeerDownError{Peer: rank, MissedFor: silence.Truncate(time.Millisecond).String()}
	}
	return nil
}

// step broadcasts one superstep order to every rank and gathers every
// response, returning them indexed by rank with the number of messages
// routed; they stay valid until the next step, which first hands them back
// to their slots. scatterM carries the matching for opScatter rounds. On
// return the routed outboxes have replaced c.inboxes and the renewable merge
// is queued for the next round.
func (c *Coordinator) step(ctx context.Context, op byte, scatterM *matching.Matching) ([]*rxFrame, int64, error) {
	c.release()
	c.ssid++
	epoch := c.epoch.Load()
	for rank, s := range c.slots {
		f := stepFrame{
			Epoch:    epoch,
			SSID:     c.ssid,
			Trace:    c.trace,
			Op:       op,
			RenewNew: c.renewNew,
			In:       c.inboxes[rank],
		}
		if op == opScatter {
			xlo, xhi := c.part.RangeX(rank)
			ylo, yhi := c.part.RangeY(rank)
			f.MateX = scatterM.MateX[xlo:xhi]
			f.MateY = scatterM.MateY[ylo:yhi]
		}
		c.stepBuf = encodeStep(c.stepBuf, &f)
		s.mu.Lock()
		conn := s.conn
		s.mu.Unlock()
		if conn == nil {
			return nil, 0, &errRankDead{rank: rank, err: &distnet.PeerDownError{Peer: rank, MissedFor: "no connection"}} //lint:ignore hotpath-alloc error exit, taken at most once per round
		}
		if err := conn.Send(fStep, c.stepBuf); err != nil {
			return nil, 0, &errRankDead{rank: rank, err: err} //lint:ignore hotpath-alloc error exit, taken at most once per round
		}
	}
	c.stats.Messages += int64(len(c.renewNew) * (c.part.K - 1))
	c.mMessages.Add(int64(len(c.renewNew) * (c.part.K - 1)))
	c.renewNew = c.renewNew[:0]

	results := c.results
	for rank := range c.slots {
		rx, err := c.gather(ctx, rank, epoch, c.ssid)
		if err != nil {
			return nil, 0, &errRankDead{rank: rank, err: err} //lint:ignore hotpath-alloc error exit, taken at most once per round
		}
		results[rank] = rx
		if rx.Op != op {
			return nil, 0, &errRankDead{rank: rank, err: &ProtoError{Frame: "stepdone", Reason: fmt.Sprintf("answered %s with %s", opSpanName(op), opSpanName(rx.Op))}} //lint:ignore hotpath-alloc protocol-violation exit, never taken on a healthy run
		}
	}
	c.noteRanks(op, results)

	// Route: rank d's next inbox is the concatenation of out[s][d] in source
	// order — the same deterministic alltoallv as the simulation, over the
	// records as they came off the wire.
	var msgs int64
	for dst := range c.inboxes {
		c.inboxes[dst] = c.inboxes[dst][:0]
	}
	for _, rx := range results {
		for dst, box := range rx.Out {
			c.inboxes[dst] = append(c.inboxes[dst], box...)
			msgs += int64(len(box) / msgSize)
		}
		c.renewNew = append(c.renewNew, rx.NewRenew...)
	}
	c.stats.Supersteps++
	c.stats.Messages += msgs
	c.mSupersteps.Add(1)
	c.mMessages.Add(msgs)
	return results, msgs, nil
}

// release hands the last step's frames back to their slots.
func (c *Coordinator) release() {
	for rank, rx := range c.results {
		if rx != nil {
			c.slots[rank].recycle(rx)
			c.results[rank] = nil
		}
	}
}

// noteRanks folds one gathered superstep into every rank's /cluster row and,
// with a tracer, records each rank's compute span on its lane. A span ends
// when the rank's StepDone arrived and lasts the compute time the worker
// reported, so every lane is on the coordinator's clock.
func (c *Coordinator) noteRanks(op byte, results []*rxFrame) {
	for rank, f := range results {
		s := c.slots[rank]
		s.steps++
		s.latSum += f.Dur
		s.latMax = max(s.latMax, f.Dur)
		if c.spans != nil {
			c.spans[rank] = obs.Span{
				Cat:   "rank",
				Name:  opSpanName(op),
				Start: f.Arrived - f.Dur,
				Dur:   f.Dur,
				Arg:   f.Info[0],
				Lane:  int32(rank) + 1,
				Trace: c.trace,
			}
		}
	}
	c.rec.Tracer().Ingest(c.spans)
}

// gather waits for rank's response to (epoch, ssid), recycling stale frames.
// A lost connection ends the wait at once: the rank's pump exits, and gather
// wakes on it. The run's heartbeat ticker covers a rank that stays connected
// but falls silent past its lease; its channel buffers one tick, so a tick
// left over from an earlier gather only makes that check early.
func (c *Coordinator) gather(ctx context.Context, rank int, epoch, ssid uint64) (*rxFrame, error) {
	s := c.slots[rank]
	s.mu.Lock()
	pumped := s.pumped
	s.mu.Unlock()
	for {
		select {
		case rx := <-s.frames:
			if rx.Epoch == epoch && rx.SSID == ssid {
				return rx, nil
			}
			s.recycle(rx) // leftover from a pre-recovery order
		case <-pumped:
			// The pump queued every frame it decoded before it exited, so a
			// response that beat the failure is taken; otherwise the rank
			// is dead.
			for {
				select {
				case rx := <-s.frames:
					if rx.Epoch == epoch && rx.SSID == ssid {
						return rx, nil
					}
					s.recycle(rx)
				default:
					return nil, &distnet.PeerDownError{Peer: rank, MissedFor: "connection lost"} //lint:ignore hotpath-alloc error exit, taken at most once per round
				}
			}
		case <-c.tick.C:
			if err := c.dead(rank); err != nil {
				return nil, err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// round is one runPhases round over the cluster (see superstepper): a step
// whose per-rank results are summed.
func (c *Coordinator) round(ctx context.Context, op byte) (info [2]int64, msgs int64, err error) {
	results, msgs, err := c.step(ctx, op, nil)
	if err != nil {
		return info, 0, err
	}
	return sumInfo(results), msgs, nil
}

// sumInfo sums the ranks' scalar results.
func sumInfo(results []*rxFrame) (info [2]int64) {
	for _, rx := range results {
		info[0] += rx.Info[0]
		info[1] += rx.Info[1]
	}
	return info
}

// Run executes the distributed matching over the connected (and still
// joining) workers, writing the final matching into m. It blocks until the
// run completes, the context expires, or recovery is exhausted. The partial
// matching gathered at the last completed phase is always left in m.
func (c *Coordinator) Run(ctx context.Context, m *matching.Matching) (ClusterStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.stats.Stats = Stats{
		Stats: &matching.Stats{
			Algorithm: "Cluster-MS-BFS-Graft",
			Threads:   c.part.K,
		},
		Ranks: c.part.K,
	}
	c.stats.Trace = obs.TraceHex(c.trace)
	c.stats.InitialCardinality = m.Cardinality()
	start := time.Now()

	lastGood := m.Clone()
	if c.opts.CheckpointDir != "" {
		if snap, _, err := checkpoint.LoadLatest(c.opts.CheckpointDir, c.fp); err == nil && snap.Cardinality > lastGood.Cardinality() {
			copy(lastGood.MateX, snap.MateX)
			copy(lastGood.MateY, snap.MateY)
		}
	}
	c.lastGood = lastGood
	c.tick = time.NewTicker(c.opts.Heartbeat)
	defer c.tick.Stop()

	err := c.awaitCluster(ctx)
	if err == nil {
		err = c.drive(ctx)
	}

	copy(m.MateX, lastGood.MateX)
	copy(m.MateY, lastGood.MateY)
	c.finishStats(start, m, err)
	if err == nil {
		c.broadcastDone()
	}
	return c.stats, err
}

// awaitCluster waits, up to rejoinWait, until every slot holds an
// incarnation: at Run's start, so a straggling first join reads as startup
// and not as a rank death to recover, and in recovery, for the replacement.
// Every attach signals c.joined, so the wait ends with the last join. The
// signal buffers one wake-up and the slots are recounted after each, so no
// join is missed.
func (c *Coordinator) awaitCluster(ctx context.Context) error {
	timeout := time.NewTimer(rejoinWait)
	defer timeout.Stop()
	for {
		joined := 0
		for _, s := range c.slots {
			if s.attached() {
				joined++
			}
		}
		if joined == c.part.K {
			return nil
		}
		select {
		case <-c.joined:
		case <-timeout.C:
			return fmt.Errorf("dist: %d of %d ranks joined within %v", joined, c.part.K, rejoinWait) //lint:ignore hotpath-alloc error exit of a wait loop that runs once per join
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// drive loops epochs: each attempt runs the phase loop from c.lastGood; a
// rank death rolls back here, recovers the rank, and retries. c.lastGood
// advances monotonically at every completed phase, so progress survives any
// number of rollbacks within the recovery budget.
func (c *Coordinator) drive(ctx context.Context) error {
	for {
		err := c.runEpoch(ctx)
		if err == nil {
			return nil
		}
		var rd *errRankDead
		if !asRankDead(err, &rd) || ctx.Err() != nil {
			return err
		}
		if c.stats.Recoveries >= maxRecoveries {
			return fmt.Errorf("dist: recovery budget (%d) exhausted: %w", maxRecoveries, err)
		}
		if rerr := c.recoverRank(ctx, rd.rank); rerr != nil {
			return fmt.Errorf("dist: recovering rank %d: %w", rd.rank, rerr) //lint:ignore hotpath-alloc error exit; the loop body is an entire epoch
		}
	}
}

// asRankDead unwraps err into an *errRankDead if one is in the chain.
func asRankDead(err error, target **errRankDead) bool {
	for err != nil {
		if rd, ok := err.(*errRankDead); ok {
			*target = rd
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// recoverRank replaces a dead rank: bury the old incarnation by closing its
// connection, bump the epoch (in-flight traffic from before is now stale by
// construction), request a respawn, and wait for the replacement's Hello.
func (c *Coordinator) recoverRank(ctx context.Context, rank int) error {
	began := time.Now()
	c.stats.RankDeaths++
	c.stats.Recoveries++
	c.mDeaths.Add(1)
	c.mRecoveries.Add(1)
	c.epoch.Add(1)

	s := c.slots[rank]
	s.deaths++
	s.mu.Lock()
	conn := s.conn
	s.conn = nil
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	c.mon.Forget(rank)
	c.drainFrames(s)

	if c.opts.Respawn != nil {
		if err := c.opts.Respawn(rank); err != nil {
			return err
		}
	}
	if err := c.awaitCluster(ctx); err != nil {
		return err
	}
	d := time.Since(began)
	c.stats.RecoveryTime += d
	c.mRecMilli.Add(d.Milliseconds())
	return nil
}

// drainFrames empties a slot's response queue so a new epoch starts clean.
func (c *Coordinator) drainFrames(s *slot) {
	for {
		select {
		case rx := <-s.frames:
			s.recycle(rx)
		default:
			return
		}
	}
}

// runEpoch rescatters c.lastGood to every rank, resetting all derived
// state, and runs the phase schedule until the matching is maximum; each
// phase boundary updates c.lastGood (and the checkpoint). Any error unwinds
// to drive for recovery.
func (c *Coordinator) runEpoch(ctx context.Context) error {
	for i := range c.inboxes {
		c.inboxes[i] = c.inboxes[i][:0]
	}
	c.renewNew = c.renewNew[:0]
	if _, _, err := c.step(ctx, opScatter, c.lastGood); err != nil {
		return err
	}
	return runPhases(ctx, c, &c.stats.Stats, c.opts.Grafting, c.opts.Alpha)
}

// phaseDone gathers the now-consistent mate arrays into c.lastGood, saves the
// checkpoint, and exports the phase observability. This is the recovery
// anchor: everything after a rank death rolls back to the matching gathered
// here, which monotonicity makes safe. A due census rides the same round:
// the workers run it before they report their mates.
func (c *Coordinator) phaseDone(ctx context.Context, phaseStart time.Time, census bool) (info [2]int64, err error) {
	op := opReportMates
	if census {
		op = opCensus
	}
	results, _, err := c.step(ctx, op, nil)
	if err != nil {
		return info, err
	}
	// Every pump checked its frame's mate blocks (doneInRange), so no
	// rank's garbage can reach lastGood half copied.
	lastGood := c.lastGood
	for rank, rx := range results {
		xlo, xhi := c.part.RangeX(rank)
		ylo, yhi := c.part.RangeY(rank)
		copy(lastGood.MateX[xlo:xhi], rx.MateX)
		copy(lastGood.MateY[ylo:yhi], rx.MateY)
	}
	card := lastGood.Cardinality()

	if c.opts.CheckpointDir != "" {
		snap := &checkpoint.Snapshot{
			Fingerprint: c.fp,
			Engine:      c.stats.Algorithm,
			Phase:       c.stats.Phases,
			Cardinality: card,
			Stats: checkpoint.CumulativeStats{
				Phases:             c.stats.Phases,
				EdgesTraversed:     c.stats.EdgesTraversed,
				AugPaths:           c.stats.AugPaths,
				InitialCardinality: c.stats.InitialCardinality,
				Grafts:             c.stats.Grafts,
				Rebuilds:           c.stats.Rebuilds,
			},
			MateX: lastGood.MateX,
			MateY: lastGood.MateY,
		}
		if _, err := checkpoint.Save(c.opts.CheckpointDir, snap); err != nil {
			return info, fmt.Errorf("dist: phase checkpoint: %w", err)
		}
	}

	c.mPhases.Add(1)
	c.exportCluster()
	c.rec.Span("cluster", "phase", phaseStart, time.Since(phaseStart), card)
	c.rec.PhaseDone(c.stats.Algorithm, c.stats.Phases, card)
	if c.opts.OnPhase != nil {
		c.opts.OnPhase(c.stats.Phases, card)
	}
	return sumInfo(results), nil
}

// finishStats closes out the run-level statistics.
func (c *Coordinator) finishStats(start time.Time, m *matching.Matching, err error) {
	c.stats.Runtime = time.Since(start)
	c.stats.FinalCardinality = m.Cardinality()
	c.stats.Complete = err == nil
	c.stats.Attaches = c.attaches.Load()
	c.exportCluster()
}

// broadcastDone tells every worker the run is complete, then waits (2 s in
// all) for each to close its end. The coordinator must not close first:
// closing a TCP connection with unread data in its buffer resets it, which
// can destroy the Done frame before the worker reads it.
func (c *Coordinator) broadcastDone() {
	var pumps []chan struct{}
	for _, s := range c.slots {
		s.mu.Lock()
		conn, pumped := s.conn, s.pumped
		s.mu.Unlock()
		if conn != nil && conn.Send(fDone, nil) == nil {
			pumps = append(pumps, pumped)
		}
	}
	deadline := time.NewTimer(2 * time.Second)
	defer deadline.Stop()
	for _, pumped := range pumps {
		select {
		case <-pumped:
		case <-deadline.C:
			return
		}
	}
}
