package net

import (
	"math/rand"
	gonet "net"
	"sync"
	"sync/atomic"
	"time"
)

// Chaos configures the proxy's fault injection, the repo's one network
// fault model. A stream socket never loses, repeats or reorders a frame
// inside a live connection, so the proxy injects only what a real network
// does to one: delay here, and outages through Proxy.SetPartition. All
// randomness is drawn from Seed so a failing schedule replays.
type Chaos struct {
	// Seed drives the jitter draws; 0 seeds from the clock.
	Seed int64

	// Latency delays every forwarded frame; Jitter adds a uniform random
	// extra on top. Because frames in one direction forward serially, high
	// latency also models a slow (throttled) rank.
	Latency time.Duration
	Jitter  time.Duration
}

// Proxy is a frame-aware man-in-the-middle for chaos testing: it listens on
// a local address, forwards framed traffic to a target, and injects latency
// and full partitions at frame granularity.
type Proxy struct {
	target string
	chaos  Chaos
	lim    Limits

	ln     gonet.Listener
	closed atomic.Bool
	done   chan struct{} // closed by Close; releases pipes a partition holds

	mu     sync.Mutex
	rng    *rand.Rand
	conns  []gonet.Conn
	healed chan struct{} // non-nil while partitioned; closed when it heals

	wg sync.WaitGroup

	nForwarded atomic.Int64
}

// ChaosStats counts what the proxy did to the traffic.
type ChaosStats struct {
	Forwarded int64
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
		done:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(seed)),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address; peers dial this instead of the
// target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetPartition toggles a full partition. While it is on, no frame crosses
// in either direction, and neither does a connection close: both wait, in
// order, until the partition heals. A real outage delays a stream; it does
// not punch holes in it. Heartbeats stop arriving, so leases on both sides
// expire.
func (p *Proxy) SetPartition(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case on && p.healed == nil:
		p.healed = make(chan struct{})
	case !on && p.healed != nil:
		close(p.healed)
		p.healed = nil
	}
}

// hold waits out any partition. It reports false if the proxy closed first.
func (p *Proxy) hold() bool {
	for {
		p.mu.Lock()
		healed := p.healed
		p.mu.Unlock()
		if healed == nil {
			return true
		}
		select {
		case <-healed:
		case <-p.done:
			return false
		}
	}
}

// Stats snapshots the traffic counters.
func (p *Proxy) Stats() ChaosStats {
	return ChaosStats{Forwarded: p.nForwarded.Load()}
}

// Close stops the proxy and severs every proxied connection.
func (p *Proxy) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	close(p.done)
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

func (p *Proxy) jitter() time.Duration {
	if p.chaos.Jitter <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Duration(p.rng.Int63n(int64(p.chaos.Jitter)))
}

// pipe forwards frames src→dst, delaying each by the configured latency and
// holding it through a partition. It exits when either side closes; the
// close crosses a partition only once it heals, and closing both ends makes
// the sibling pipe exit too.
func (p *Proxy) pipe(src, dst gonet.Conn) {
	defer p.wg.Done()
	defer func() {
		p.hold()
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
		if !p.hold() {
			return
		}
		if d := p.chaos.Latency + p.jitter(); d > 0 {
			time.Sleep(d)
		}
		wbuf = appendFrame(wbuf[:0], typ, payload)
		if _, err := dst.Write(wbuf); err != nil {
			return
		}
		p.nForwarded.Add(1)
	}
}
