package net

import (
	"math/rand"
	gonet "net"
	"sync"
	"sync/atomic"
	"time"
)

// Chaos configures the proxy's fault injection, the repo's one network
// fault model: probabilities are per frame per direction, all randomness
// is drawn from Seed so a failing schedule replays.
type Chaos struct {
	// Seed drives the fault schedule; 0 seeds from the clock.
	Seed int64

	// Drop is the probability a forwarded frame is silently discarded.
	Drop float64

	// Duplicate is the probability a forwarded frame is sent twice.
	Duplicate float64

	// Latency delays every forwarded frame; Jitter adds a uniform random
	// extra on top. Because frames in one direction forward serially, high
	// latency also models a slow (throttled) rank.
	Latency time.Duration
	Jitter  time.Duration
}

// Proxy is a frame-aware man-in-the-middle for chaos testing: it listens on
// a local address, forwards framed traffic to a target, and injects drops,
// duplication, latency, and full partitions at frame granularity. Framing
// awareness is what makes drops meaningful — discarding raw bytes would
// desynchronize the stream, whereas dropping whole frames exercises exactly
// the retransmit/replay machinery the session layer exists for.
type Proxy struct {
	target string
	chaos  Chaos
	lim    Limits

	ln          gonet.Listener
	partitioned atomic.Bool
	closed      atomic.Bool

	mu    sync.Mutex
	rng   *rand.Rand
	conns []gonet.Conn

	wg sync.WaitGroup

	nDropped, nDuplicated, nForwarded atomic.Int64
}

// ChaosStats counts what the proxy did to the traffic.
type ChaosStats struct {
	Forwarded, Dropped, Duplicated int64
}

// NewProxy starts a chaos proxy on a fresh loopback address in front of
// target ("host:port", or a unix socket path). Close shuts it down.
func NewProxy(target string, chaos Chaos, lim Limits) (*Proxy, error) {
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, &TransportError{Op: "accept", Err: err}
	}
	seed := chaos.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	p := &Proxy{
		target: target,
		chaos:  chaos,
		lim:    lim,
		ln:     ln,
		rng:    rand.New(rand.NewSource(seed)),
	}
	p.wg.Add(1) //lint:ignore wg-balance acceptLoop's first deferred statement is the matching Done
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address; peers dial this instead of the
// target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetPartition toggles a full partition: while on, every frame in both
// directions is black-holed (connections stay open — the network is down,
// not the peer). Heartbeats stop flowing, so monitors on both sides expire.
func (p *Proxy) SetPartition(on bool) { p.partitioned.Store(on) }

// Stats snapshots the injected-fault counters.
func (p *Proxy) Stats() ChaosStats {
	return ChaosStats{
		Forwarded:  p.nForwarded.Load(),
		Dropped:    p.nDropped.Load(),
		Duplicated: p.nDuplicated.Load(),
	}
}

// Close stops the proxy and severs every proxied connection.
func (p *Proxy) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	err := p.ln.Close()
	p.mu.Lock()
	conns := append([]gonet.Conn(nil), p.conns...)
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		out, err := gonet.Dial(Network(p.target), p.target)
		if err != nil {
			_ = in.Close()
			continue
		}
		p.track(in, out)
		p.wg.Add(2)
		go p.pipe(in, out)
		go p.pipe(out, in)
	}
}

func (p *Proxy) track(cs ...gonet.Conn) {
	p.mu.Lock()
	p.conns = append(p.conns, cs...)
	p.mu.Unlock()
}

// roll draws from the shared seeded source.
func (p *Proxy) roll() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Float64()
}

func (p *Proxy) jitter() time.Duration {
	if p.chaos.Jitter <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Duration(p.rng.Int63n(int64(p.chaos.Jitter)))
}

// pipe forwards frames src→dst, injecting the configured faults. It exits
// when either side closes; closing src makes the sibling pipe exit too.
func (p *Proxy) pipe(src, dst gonet.Conn) {
	defer p.wg.Done()
	defer func() {
		_ = src.Close()
		_ = dst.Close()
	}()
	var buf []byte
	var wbuf []byte
	for {
		typ, payload, newBuf, err := readFrame(src, p.lim, buf)
		buf = newBuf
		if err != nil {
			return
		}
		if p.partitioned.Load() {
			p.nDropped.Add(1)
			continue // black hole: the bytes died on the wire
		}
		if p.chaos.Drop > 0 && p.roll() < p.chaos.Drop {
			p.nDropped.Add(1)
			continue
		}
		if d := p.chaos.Latency + p.jitter(); d > 0 {
			time.Sleep(d)
		}
		wbuf = appendFrame(wbuf[:0], typ, payload)
		if _, err := dst.Write(wbuf); err != nil {
			return
		}
		p.nForwarded.Add(1)
		if p.chaos.Duplicate > 0 && p.roll() < p.chaos.Duplicate {
			if _, err := dst.Write(wbuf); err != nil {
				return
			}
			p.nDuplicated.Add(1)
		}
	}
}
