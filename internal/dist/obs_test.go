package dist

import (
	"path/filepath"
	"testing"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/gen"
	"graftmatch/internal/matching"
	"graftmatch/internal/obs"
)

// A run with a live recorder must export superstep/message/phase counters
// that agree exactly with the final Stats, one span per phase plus
// per-superstep spans, and a status snapshot at the final phase.
func TestRecorderMatchesStats(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 9)
	rec := obs.New(obs.Config{TraceCapacity: 65536})
	m := matching.New(g.NX(), g.NY())
	s := RunRec(t, g, m, rec, Options{Ranks: 4, Grafting: true})

	counters := map[string]int64{
		"graftmatch_dist_supersteps_total": s.Supersteps,
		"graftmatch_dist_messages_total":   s.Messages,
		"graftmatch_dist_phases_total":     s.Phases,
	}
	for name, want := range counters {
		if got := rec.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d (stats)", name, got, want)
		}
	}

	spans, dropped := rec.Tracer().Snapshot()
	if dropped != 0 {
		t.Fatalf("trace ring dropped %d spans; raise TraceCapacity", dropped)
	}
	var phaseSpans, ssSpans int64
	for _, sp := range spans {
		if sp.Cat != "dist" {
			t.Errorf("unexpected span category %q", sp.Cat)
		}
		switch sp.Name {
		case "phase":
			phaseSpans++
		case "superstep":
			ssSpans++
		}
	}
	if phaseSpans != s.Phases {
		t.Errorf("phase spans = %d, want %d", phaseSpans, s.Phases)
	}
	// The first exchange has no predecessor to measure from, so exactly one
	// superstep goes unspanned.
	if ssSpans != s.Supersteps-1 {
		t.Errorf("superstep spans = %d, want %d", ssSpans, s.Supersteps-1)
	}

	st := rec.Status()
	if st.Phase != s.Phases {
		t.Errorf("status phase = %d, want %d", st.Phase, s.Phases)
	}
	if st.Cardinality != s.FinalCardinality {
		t.Errorf("status cardinality = %d, want %d", st.Cardinality, s.FinalCardinality)
	}
	if st.Algorithm != s.Algorithm {
		t.Errorf("status algorithm = %q, want %q", st.Algorithm, s.Algorithm)
	}
}

// A recorder must not perturb the computed matching.
func TestRecorderDoesNotPerturbRun(t *testing.T) {
	g := gen.ER(500, 500, 2000, 3)
	base := matching.New(g.NX(), g.NY())
	baseStats := Run(g, base, Options{Ranks: 4, Grafting: true})

	rec := obs.New(obs.Config{})
	m := matching.New(g.NX(), g.NY())
	s := RunRec(t, g, m, rec, Options{Ranks: 4, Grafting: true})
	if s.FinalCardinality != baseStats.FinalCardinality {
		t.Errorf("cardinality %d != %d", s.FinalCardinality, baseStats.FinalCardinality)
	}
	if s.Supersteps != baseStats.Supersteps {
		t.Errorf("supersteps %d != %d", s.Supersteps, baseStats.Supersteps)
	}
}

// TestClusterRecorderMatchesStats: a fault-free 4-rank cluster run with a
// coordinator recorder puts one span per gathered superstep on every rank's
// lane, so each lane holds exactly ClusterStats.Supersteps spans, the same
// count as the rank's /cluster Steps, with the row's latency sum and max
// taken from the same StepDone durations; and the cluster counters equal
// the run's stats.
func TestClusterRecorderMatchesStats(t *testing.T) {
	g := gen.WebLike(11, 6, 0.30, 1)
	rec := obs.New(obs.Config{TraceCapacity: 1 << 16})
	opts := testClusterOpts()
	opts.Recorder = rec
	_, s := runCluster(t, g, filepath.Join(t.TempDir(), "graft.sock"), opts)

	spans, dropped := rec.Tracer().Snapshot()
	if dropped != 0 {
		t.Fatalf("trace ring dropped %d spans; raise TraceCapacity", dropped)
	}
	type lane struct{ n, sum, max int64 }
	lanes := make([]lane, opts.Ranks)
	for _, sp := range spans {
		if sp.Lane == 0 {
			continue
		}
		if sp.Cat != "rank" || sp.Lane > int32(opts.Ranks) || obs.TraceHex(sp.Trace) != s.Trace {
			t.Fatalf("unexpected span on a rank lane: %+v", sp)
		}
		l := &lanes[sp.Lane-1]
		l.n++
		l.sum += sp.Dur
		l.max = max(l.max, sp.Dur)
	}
	cs := rec.Cluster()
	if len(cs.Ranks) != opts.Ranks {
		t.Fatalf("/cluster has %d rows, want %d", len(cs.Ranks), opts.Ranks)
	}
	for r, l := range lanes {
		row := cs.Ranks[r]
		if l.n != s.Supersteps || row.Steps != s.Supersteps {
			t.Errorf("rank %d: %d lane spans, /cluster steps %d, want %d supersteps", r, l.n, row.Steps, s.Supersteps)
		}
		if row.StepLatencySumNS != l.sum || row.StepLatencyMaxNS != l.max {
			t.Errorf("rank %d: /cluster latency sum %d max %d, lane spans sum %d max %d", r, row.StepLatencySumNS, row.StepLatencyMaxNS, l.sum, l.max)
		}
	}
	for name, want := range map[string]int64{
		"graftmatch_cluster_supersteps_total": s.Supersteps,
		"graftmatch_cluster_messages_total":   s.Messages,
		"graftmatch_cluster_phases_total":     s.Phases,
	} {
		if got := rec.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d (stats)", name, got, want)
		}
	}
}

// RunRec runs with opts.Recorder = rec and asserts completion.
func RunRec(t *testing.T, g *bipartite.Graph, m *matching.Matching, rec *obs.Recorder, opts Options) Stats {
	t.Helper()
	opts.Recorder = rec
	s := Run(g, m, opts)
	if !s.Complete {
		t.Fatal("run incomplete")
	}
	return s
}
