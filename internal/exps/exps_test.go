package exps

import (
	"bytes"
	"strings"
	"testing"

	"graftmatch/internal/leaktest"
	"graftmatch/internal/obs"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

var smallCfg = Config{Scale: Small, Threads: 2, Reps: 1}

func TestSuiteDeterministicAndClassed(t *testing.T) {
	a := Suite(Small)
	b := Suite(Small)
	if len(a) != 12 {
		t.Fatalf("suite size %d, want 12", len(a))
	}
	counts := map[Class]int{}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Graph.NumEdges() != b[i].Graph.NumEdges() {
			t.Fatalf("suite not deterministic at %d", i)
		}
		if a[i].Graph.NumEdges() == 0 {
			t.Fatalf("instance %s empty", a[i].Name)
		}
		counts[a[i].Class]++
	}
	for _, c := range Classes() {
		if counts[c] != 4 {
			t.Fatalf("class %v has %d instances, want 4", c, counts[c])
		}
	}
}

func TestFig1SuiteSelection(t *testing.T) {
	insts := Fig1Suite(Small)
	if len(insts) != 3 {
		t.Fatalf("fig1 suite = %d instances, want 3", len(insts))
	}
	want := map[string]bool{"kkt_power": true, "cit-patents": true, "wikipedia": true}
	for _, inst := range insts {
		if !want[inst.Name] {
			t.Fatalf("unexpected instance %s", inst.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName(Small, "coPapersDBLP"); !ok {
		t.Fatal("coPapersDBLP missing")
	}
	if _, ok := ByName(Small, "nope"); ok {
		t.Fatal("found nonexistent instance")
	}
	if len(Names(Small)) != 12 {
		t.Fatal("Names size")
	}
}

func TestRunAllAlgos(t *testing.T) {
	inst, _ := ByName(Small, "kkt_power")
	var card int64 = -1
	for _, a := range []Algo{AlgoGraft, AlgoMSBFS, AlgoDirOpt, AlgoGraftTD, AlgoPF, AlgoPR, AlgoHK, AlgoSSBFS, AlgoSSDFS} {
		s := Run(a, inst.Graph, 2)
		if card == -1 {
			card = s.FinalCardinality
		} else if s.FinalCardinality != card {
			t.Fatalf("%s disagrees: %d vs %d", a, s.FinalCardinality, card)
		}
	}
}

// TestRunWithRecordsMSBFSFamily: RunWith threads the recorder into the
// MS-BFS baselines as well, so their Fig. 1 rows carry live metrics.
func TestRunWithRecordsMSBFSFamily(t *testing.T) {
	inst, _ := ByName(Small, "kkt_power")
	for _, a := range []Algo{AlgoMSBFS, AlgoDirOpt} {
		rec := obs.New(obs.Config{})
		s := RunWith(a, inst.Graph, 2, rec)
		got := rec.Counter("graftmatch_core_edges_traversed_total", "").Value()
		if got == 0 || got != s.EdgesTraversed {
			t.Errorf("%s: edges counter = %d, want %d (stats)", a, got, s.EdgesTraversed)
		}
	}
}

func TestRunUnknownAlgoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	inst, _ := ByName(Small, "kkt_power")
	Run(Algo("bogus"), inst.Graph, 1)
}

func TestMeasure(t *testing.T) {
	inst, _ := ByName(Small, "road_usa")
	tm := Measure(AlgoGraft, inst.Graph, 2, 3)
	if tm.Reps != 3 || tm.Mean <= 0 || tm.Min <= 0 || tm.Max < tm.Min {
		t.Fatalf("timing: %+v", tm)
	}
	if tm.Sensitivity() < 0 {
		t.Fatalf("negative sensitivity")
	}
	zero := Timing{}
	if zero.Sensitivity() != 0 {
		t.Fatal("zero timing sensitivity")
	}
	def := Measure(AlgoHK, inst.Graph, 1, 0)
	if def.Reps != defaultReps {
		t.Fatalf("default reps = %d", def.Reps)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("note %d", 7)
	var buf bytes.Buffer
	if err := tab.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== T ==", "a", "bb", "# note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ASCII output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,bb\n1,2\n" {
		t.Fatalf("CSV = %q", got)
	}
}

func TestTableI(t *testing.T) {
	tab := TableI(smallCfg)
	if len(tab.Rows) < 4 {
		t.Fatalf("table I rows: %v", tab.Rows)
	}
}

func TestTableII(t *testing.T) {
	tab := TableII(smallCfg)
	if len(tab.Rows) != 12 {
		t.Fatalf("table II rows = %d", len(tab.Rows))
	}
	// Networks-class rows must show lower matching fractions than
	// scientific-class rows (the defining property of the classes).
	frac := map[string]string{}
	for _, r := range tab.Rows {
		frac[r[1]] = r[6]
	}
	if frac["kkt_power"] < frac["wb-edu"] {
		t.Fatalf("matching fractions inverted: kkt=%s wb-edu=%s", frac["kkt_power"], frac["wb-edu"])
	}
}

func TestFig1(t *testing.T) {
	tabs := Fig1(smallCfg)
	if len(tabs) != 3 {
		t.Fatalf("fig1 tables = %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 3 || len(tab.Header) != 6 {
			t.Fatalf("fig1 table shape: %v", tab.Header)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	tab := Fig3(smallCfg)
	if len(tab.Rows) != 12 || len(tab.Header) != 8 {
		t.Fatalf("fig3 shape: %d rows, %d cols", len(tab.Rows), len(tab.Header))
	}
	// Every thread-group must contain at least one 1.00 (the slowest).
	for _, row := range tab.Rows {
		has1 := false
		for _, c := range row[2:5] {
			if c == "1.00" {
				has1 = true
			}
		}
		if !has1 {
			t.Fatalf("row %v has no slowest=1.00 in serial group", row)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	tab := Fig4(smallCfg)
	if len(tab.Rows) != 12 {
		t.Fatalf("fig4 rows = %d", len(tab.Rows))
	}
}

func TestFig5Shape(t *testing.T) {
	tab := Fig5(smallCfg)
	if len(tab.Rows) != 3 {
		t.Fatalf("fig5 rows = %d", len(tab.Rows))
	}
	if tab.Header[1] != "p=1" {
		t.Fatalf("fig5 header: %v", tab.Header)
	}
}

func TestFig6Shape(t *testing.T) {
	tab := Fig6(smallCfg)
	if len(tab.Rows) != 12 || len(tab.Header) != 6 {
		t.Fatalf("fig6 shape: %d rows %d cols", len(tab.Rows), len(tab.Header))
	}
}

func TestFig7Shape(t *testing.T) {
	tab := Fig7(smallCfg)
	if len(tab.Rows) != 12 || len(tab.Header) != 5 {
		t.Fatalf("fig7 shape: %d rows %d cols", len(tab.Rows), len(tab.Header))
	}
}

// TestFig7XLShape runs the XL ablation once. Its title must name the thread
// count, as Fig7's does: matchbench runs it at GOMAXPROCS unless -threads
// says otherwise.
func TestFig7XLShape(t *testing.T) {
	tab := Fig7XL(smallCfg)
	if want := "(2 threads)"; !strings.HasSuffix(tab.Title, want) {
		t.Fatalf("fig7xl title %q does not end in %q", tab.Title, want)
	}
	if len(tab.Rows) != 3 || len(tab.Header) != 6 {
		t.Fatalf("fig7xl shape: %d rows %d cols", len(tab.Rows), len(tab.Header))
	}
}

func TestFig8Shape(t *testing.T) {
	tab := Fig8(smallCfg)
	if len(tab.Rows) == 0 {
		t.Skip("instance solved in too few phases to trace")
	}
	for _, row := range tab.Rows {
		if len(row) < 3 {
			t.Fatalf("trace row too short: %v", row)
		}
	}
}

func TestPsiShape(t *testing.T) {
	cfg := smallCfg
	cfg.Reps = 5
	tab := Psi(cfg)
	if len(tab.Rows) != 13 { // 12 instances + AVERAGE
		t.Fatalf("psi rows = %d", len(tab.Rows))
	}
	if tab.Rows[12][0] != "AVERAGE" {
		t.Fatalf("last row: %v", tab.Rows[12])
	}
}

func TestThreadSweep(t *testing.T) {
	got := threadSweep(8)
	want := []int{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("sweep = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep = %v, want %v", got, want)
		}
	}
	if s := threadSweep(1); len(s) != 1 || s[0] != 1 {
		t.Fatalf("sweep(1) = %v", s)
	}
	if s := threadSweep(6); s[len(s)-1] != 6 {
		t.Fatalf("sweep(6) = %v", s)
	}
}

func TestClassString(t *testing.T) {
	if Scientific.String() != "scientific" || ScaleFree.String() != "scale-free" || Networks.String() != "networks" {
		t.Fatal("class names")
	}
	if !strings.HasPrefix(Class(9).String(), "Class(") {
		t.Fatal("unknown class name")
	}
}

func TestAblationAlphaShape(t *testing.T) {
	tab := AblationAlpha(smallCfg)
	if len(tab.Rows) != 15 { // 3 graphs x 5 alphas
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestAblationInitShape(t *testing.T) {
	tab := AblationInit(smallCfg)
	if len(tab.Rows) != 48 { // 12 graphs x 4 inits
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Final |M| identical across inits for each graph.
	final := map[string]string{}
	for _, r := range tab.Rows {
		if prev, ok := final[r[0]]; ok && prev != r[3] {
			t.Fatalf("%s: final cardinality differs across inits: %s vs %s", r[0], prev, r[3])
		}
		final[r[0]] = r[3]
	}
}

func TestDistributedShape(t *testing.T) {
	tab := Distributed(smallCfg)
	if len(tab.Rows) != 9 { // 3 graphs x 3 rank counts
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Cardinality identical across rank counts per graph.
	card := map[string]string{}
	for _, r := range tab.Rows {
		if prev, ok := card[r[0]]; ok && prev != r[2] {
			t.Fatalf("%s: |M| differs across ranks: %s vs %s", r[0], prev, r[2])
		}
		card[r[0]] = r[2]
	}
}
