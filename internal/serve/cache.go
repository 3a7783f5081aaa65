package serve

import (
	"sync"
	"time"

	"graftmatch"
	"graftmatch/internal/checkpoint"
)

// maxCachedResults bounds the completed-result cache. The registry is fixed,
// but seeds and algorithm choices multiply keys, so eviction is needed;
// random eviction (map order) is good enough for a bounded memory guarantee.
// An entry holds its mate arrays and, once a hit has asked for mates, their
// encoded form too (cachedResult.mates).
const maxCachedResults = 256

// cacheKey identifies one deterministic computation: the graph content (by
// fingerprint, so two instances backed by identical files share results) and
// everything that changes the answer. Threads deliberately excluded — the
// matching may differ run to run, but any maximum matching is a correct
// answer, so a cached one from a different thread count still serves.
type cacheKey struct {
	fp   checkpoint.Fingerprint
	alg  graftmatch.Algorithm
	init graftmatch.Initializer
	seed int64
}

// cachedResult is one certified answer in the result cache. The result is
// immutable once cached; tail is built once, on the first hit with mates.
type cachedResult struct {
	res *graftmatch.Result

	tailOnce sync.Once
	tail     []byte
}

// mates returns the answer's mate arrays as encodeMatch writes them, the
// appendMates bytes. The first call encodes them, while concurrent first
// callers wait for it, and every later call returns the same stored bytes,
// which no caller may modify.
func (c *cachedResult) mates() []byte {
	c.tailOnce.Do(func() { c.tail = appendMates(nil, c.res.MateX, c.res.MateY) })
	return c.tail
}

// flight is a single-flight cell: the leader computes and closes done; any
// follower that arrives while it is open waits (bounded by its own deadline)
// instead of duplicating the work.
type flight struct {
	done chan struct{}
	res  *cachedResult // non-nil after done only for a complete result
}

// LastGood is the best matching any run has reached for one instance: the
// degradation floor. A request whose own run cannot finish in time answers
// with this instead of an error.
type LastGood struct {
	MateX, MateY []int32
	Cardinality  int64
	Complete     bool
	Engine       string
	When         time.Time
}

// resultCache combines the complete-result cache, the single-flight table,
// the per-instance last-good floor and the proven maximum cardinalities. One
// mutex guards the maps; waiting happens on per-flight channels, never under
// the lock.
type resultCache struct {
	mu       sync.Mutex
	results  map[cacheKey]*cachedResult
	inflight map[cacheKey]*flight
	lastGood map[string]*LastGood

	// maxCard holds ν, the maximum cardinality, of every graph a proof has
	// covered, by fingerprint. Only registry graphs reach it, so it is
	// bounded by the registry.
	maxCard map[checkpoint.Fingerprint]int64
}

func newResultCache() *resultCache {
	return &resultCache{
		results:  make(map[cacheKey]*cachedResult),
		inflight: make(map[cacheKey]*flight),
		lastGood: make(map[string]*LastGood),
		maxCard:  make(map[checkpoint.Fingerprint]int64),
	}
}

// begin is the single-flight entry. It returns exactly one of:
//   - hit non-nil: a complete cached result (leader false, fl nil);
//   - leader true: the caller must compute and then call finish(key, fl, …);
//   - fl non-nil, leader false: another request is computing this key; wait
//     on fl.done with your own deadline and read fl.res after it closes.
func (c *resultCache) begin(key cacheKey) (hit *cachedResult, fl *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.results[key]; ok {
		return r, nil, false
	}
	if f, ok := c.inflight[key]; ok {
		return nil, f, false
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	return nil, f, true
}

// finish publishes the leader's outcome: caches res when it is a complete
// matching, which the server has certified, wakes every follower, and clears
// the flight. Incomplete or failed runs are not cached — the next request
// should try again.
func (c *resultCache) finish(key cacheKey, f *flight, res *graftmatch.Result) {
	c.mu.Lock()
	if res != nil && res.Complete {
		if len(c.results) >= maxCachedResults {
			for k := range c.results {
				delete(c.results, k)
				break
			}
		}
		f.res = &cachedResult{res: res}
		c.results[key] = f.res
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
}

// noteResult folds a run's matching into the instance's last-good floor if
// it beats what is there. Partial matchings count: the floor should be the
// best state reached by anyone, complete or not. The mate slices are
// retained as-is and treated as immutable from then on (each run allocates
// its own).
func (c *resultCache) noteResult(instance, engine string, res *graftmatch.Result) {
	if res == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if lg, ok := c.lastGood[instance]; ok {
		if lg.Cardinality > res.Cardinality || (lg.Complete && !res.Complete) {
			return
		}
	}
	c.lastGood[instance] = &LastGood{
		MateX:       res.MateX,
		MateY:       res.MateY,
		Cardinality: res.Cardinality,
		Complete:    res.Complete,
		Engine:      engine,
		When:        time.Now(),
	}
}

// seedLastGood installs a floor restored from disk (a checkpoint snapshot)
// without competing against live results.
func (c *resultCache) seedLastGood(instance string, lg *LastGood) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.lastGood[instance]; !ok {
		c.lastGood[instance] = lg
	}
}

// getLastGood returns the instance's degradation floor, if any run (or a
// restored checkpoint) has established one.
func (c *resultCache) getLastGood(instance string) (*LastGood, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lg, ok := c.lastGood[instance]
	return lg, ok
}

// noteMaximum records ν, the maximum cardinality of the graph with
// fingerprint fp, which a proof has just established.
func (c *resultCache) noteMaximum(fp checkpoint.Fingerprint, nu int64) {
	c.mu.Lock()
	c.maxCard[fp] = nu
	c.mu.Unlock()
}

// maximum returns ν for the graph with fingerprint fp, if a proof has
// established it.
func (c *resultCache) maximum(fp checkpoint.Fingerprint) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nu, ok := c.maxCard[fp]
	return nu, ok
}
