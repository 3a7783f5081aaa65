package graftmatch

import (
	"context"
	"errors"
	"testing"

	"graftmatch/internal/dist"
	"graftmatch/internal/matching"
	"graftmatch/internal/reference"
)

// fuzzEngineDist selects the BSP engine (dist.RunCtx) instead of one of the
// facade algorithms in allAlgorithms.
const fuzzEngineDist = 8

// fuzzAlphas are the graft and direction thresholds α a FuzzEngines input
// can pick: the default (0), and values either side of it, so the
// graft/rebuild decision takes both branches.
var fuzzAlphas = [4]float64{0, 1, 2, 20}

// fuzzCase is one decoded FuzzEngines input: a graph of at most 24 × 24, a
// valid initial matching, an engine, a thread (or rank) count, the phase at
// which the first run is cancelled and the threshold α.
type fuzzCase struct {
	g        *Graph
	init     *matching.Matching
	engine   int     // index into allAlgorithms, or fuzzEngineDist
	threads  int     // 1..4; the rank count K for the BSP engine
	cancelAt int64   // 0 cancels before the run starts
	graft    bool    // BSP engine only
	alpha    float64 // the MS-BFS family and the BSP engine; 0 is the default
}

// decodeFuzzCase reads the FuzzEngines byte format:
//
//	byte 0   nx = b % 25
//	byte 1   ny = b % 25
//	byte 2   engine = b % 9 (0..7 index allAlgorithms, 8 is the BSP engine)
//	byte 3   bits 0-1 threads-1, bits 2-3 cancel phase, bit 4 BSP grafting off,
//	         bits 5-6 α = fuzzAlphas[b>>5&3]
//	then     one edge per byte pair: x = (b0 & 0x7f) % nx, y = b1 % ny
//
// The initial matching is greedy over the edges in input order; an edge whose
// x byte has bit 7 set is skipped by the greedy pass, which thins it.
func decodeFuzzCase(data []byte) (*fuzzCase, bool) {
	if len(data) < 4 {
		return nil, false
	}
	nx, ny := int32(data[0]%25), int32(data[1]%25)
	c := &fuzzCase{
		engine:   int(data[2] % 9),
		threads:  1 + int(data[3]&3),
		cancelAt: int64(data[3]>>2) & 3,
		graft:    data[3]&0x10 == 0,
		alpha:    fuzzAlphas[data[3]>>5&3],
	}
	var edges []Edge
	var greedy []bool
	if nx > 0 && ny > 0 {
		for i := 4; i+1 < len(data) && len(edges) < 256; i += 2 {
			edges = append(edges, Edge{X: int32(data[i]&0x7f) % nx, Y: int32(data[i+1]) % ny})
			greedy = append(greedy, data[i]&0x80 == 0)
		}
	}
	g, err := FromEdges(nx, ny, edges)
	if err != nil {
		return nil, false
	}
	c.g = g
	c.init = matching.New(nx, ny)
	for i, e := range edges {
		if greedy[i] && c.init.MateX[e.X] == Unmatched && c.init.MateY[e.Y] == Unmatched {
			c.init.Match(e.X, e.Y)
		}
	}
	return c, true
}

// encodeFig2 is the paper's Fig. 2 instance in the FuzzEngines byte format:
// six vertices a side, and the initial matching {(x3,y1), (x4,y2), (x5,y3),
// (x6,y4)}, which the greedy pass reproduces because those four edges come
// first. The maximum matching is perfect.
func encodeFig2(engine, threads, cancelAt byte) []byte {
	data := []byte{6, 6, engine, (threads - 1) | cancelAt<<2}
	for _, e := range [][2]byte{
		{2, 0}, {3, 1}, {4, 2}, {5, 3}, // the initial matching
		{0, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 2}, {3, 3}, {4, 4}, {5, 5},
	} {
		data = append(data, e[0], e[1])
	}
	return data
}

// FuzzEngines runs every engine on a small graph from a valid initial
// matching, cancels it at a phase boundary, and resumes it to the end. α
// reaches the engines that read it: the MS-BFS family and the BSP engine. The
// partial result must be a valid matching no smaller than the initial one,
// and the resumed result a certified maximum of the reference cardinality.
// No input may make an engine panic or return an error other than the
// cancellation.
func FuzzEngines(f *testing.F) {
	for engine := byte(0); engine <= fuzzEngineDist; engine++ {
		f.Add(encodeFig2(engine, 1+engine%4, engine%4))
	}
	// The grafting engines again under each non-default α.
	for _, engine := range []byte{0, fuzzEngineDist} {
		for a := byte(1); a < byte(len(fuzzAlphas)); a++ {
			data := encodeFig2(engine, 2, 0)
			data[3] |= a << 5
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeFuzzCase(data)
		if !ok {
			return
		}
		want := reference.SimpleMaximum(c.g).Cardinality()
		initial := c.init.Cardinality()

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if c.cancelAt == 0 {
			cancel()
		}
		onPhase := func(phase, _ int64) {
			if phase == c.cancelAt {
				cancel()
			}
		}

		var partial, final *matching.Matching
		if c.engine == fuzzEngineDist {
			partial = c.init.Clone()
			opts := dist.Options{Ranks: c.threads, Grafting: c.graft, Alpha: c.alpha, OnPhase: onPhase}
			if _, err := dist.RunCtx(ctx, c.g, partial, opts); err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("BSP K=%d graft=%v α=%g: %v", c.threads, c.graft, c.alpha, err)
			}
			final = partial.Clone()
			opts.OnPhase = nil
			if _, err := dist.RunCtx(context.Background(), c.g, final, opts); err != nil {
				t.Fatalf("BSP K=%d graft=%v α=%g resume: %v", c.threads, c.graft, c.alpha, err)
			}
		} else {
			alg := allAlgorithms[c.engine]
			opts := Options{Algorithm: alg, Threads: c.threads, Alpha: c.alpha, OnPhase: onPhase}
			res, err := ResumeMatchContext(ctx, c.g, c.init.MateX, c.init.MateY, opts)
			if err != nil {
				t.Fatalf("%v threads=%d α=%g: %v", alg, c.threads, c.alpha, err)
			}
			partial = &matching.Matching{MateX: res.MateX, MateY: res.MateY}
			opts.OnPhase = nil
			if res, err = ResumeMatch(c.g, res.MateX, res.MateY, opts); err != nil {
				t.Fatalf("%v threads=%d α=%g resume: %v", alg, c.threads, c.alpha, err)
			}
			if !res.Complete {
				t.Fatalf("%v threads=%d α=%g: uncancelled resume returned Complete=false", alg, c.threads, c.alpha)
			}
			final = &matching.Matching{MateX: res.MateX, MateY: res.MateY}
		}

		if err := VerifyMatching(c.g, partial.MateX, partial.MateY); err != nil {
			t.Fatalf("engine %d: partial matching invalid: %v", c.engine, err)
		}
		if got := partial.Cardinality(); got < initial {
			t.Fatalf("engine %d: partial |M| = %d, below the initial %d", c.engine, got, initial)
		}
		if got := final.Cardinality(); got != want {
			t.Fatalf("engine %d: |M| = %d, reference %d", c.engine, got, want)
		}
		if err := VerifyMaximum(c.g, final.MateX, final.MateY); err != nil {
			t.Fatalf("engine %d: %v", c.engine, err)
		}
	})
}
