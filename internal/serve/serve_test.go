package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graftmatch"
	"graftmatch/internal/core"
	"graftmatch/internal/leaktest"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

// writeGraph writes a random bipartite edge list ("# nx ny" header) to path.
// diag additionally adds the (i,i) diagonal, making square patterns
// structurally nonsingular for btfsolve.
func writeGraph(t *testing.T, path string, nx, ny int32, deg int, seed int64, diag bool) {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "# %d %d\n", nx, ny)
	rng := rand.New(rand.NewSource(seed))
	for x := int32(0); x < nx; x++ {
		if diag {
			fmt.Fprintf(&b, "%d %d\n", x, x)
		}
		for d := 0; d < deg; d++ {
			fmt.Fprintf(&b, "%d %d\n", x, rng.Int31n(ny))
		}
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// newTestServer builds a registry in a temp dir via populate, then a Server
// on it and an httptest listener.
func newTestServer(t *testing.T, cfg Config, populate func(dir string)) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	populate(dir)
	reg, err := LoadRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Pool == nil {
		// The server owns its pool, and draining closes it. Cleanups run
		// last first, so the drain follows ts.Close.
		t.Cleanup(func() {
			if err := s.Drain(context.Background()); err != nil {
				t.Error(err)
			}
		})
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func decodeMatch(t *testing.T, data []byte) *MatchResponse {
	t.Helper()
	var m MatchResponse
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	return &m
}

// ---- registry --------------------------------------------------------------

func TestLoadRegistry(t *testing.T) {
	dir := t.TempDir()
	writeGraph(t, filepath.Join(dir, "small.el"), 50, 50, 3, 1, false)
	writeGraph(t, filepath.Join(dir, "tiny.txt"), 5, 7, 2, 2, false)
	if err := os.WriteFile(filepath.Join(dir, "notes.md"), []byte("ignored"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := LoadRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Names(); len(got) != 2 || got[0] != "small" || got[1] != "tiny" {
		t.Fatalf("names = %v", got)
	}
	ins, ok := reg.Get("tiny")
	if !ok || ins.Graph.NX() != 5 || ins.Graph.NY() != 7 {
		t.Fatalf("tiny = %+v ok=%v", ins, ok)
	}
}

func TestLoadRegistryRejectsDuplicates(t *testing.T) {
	dir := t.TempDir()
	writeGraph(t, filepath.Join(dir, "g.el"), 5, 5, 2, 1, false)
	writeGraph(t, filepath.Join(dir, "g.txt"), 5, 5, 2, 1, false)
	if _, err := LoadRegistry(dir); err == nil || !strings.Contains(err.Error(), "defined by both") {
		t.Fatalf("err = %v, want duplicate error", err)
	}
}

func TestLoadRegistryRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.el"), []byte("0 nonsense\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRegistry(dir); err == nil {
		t.Fatal("want error for malformed graph file")
	}
}

func TestLoadRegistryRejectsEmpty(t *testing.T) {
	if _, err := LoadRegistry(t.TempDir()); err == nil {
		t.Fatal("want error for empty registry dir")
	}
}

// ---- request decoding ------------------------------------------------------

func TestDecodeRequestValidation(t *testing.T) {
	cases := []struct {
		name, body string
		caps       Caps
		wantErr    string
	}{
		{"ok", `{"instance":"g"}`, Caps{}, ""},
		{"defaults class", `{"instance":"g"}`, Caps{}, ""},
		{"missing instance", `{}`, Caps{}, "missing"},
		{"bad json", `{`, Caps{}, "malformed"},
		{"body too big", `{"instance":"g"}`, Caps{MaxBody: 4}, "exceeds limit"},
		{"name too long", `{"instance":"abcdef"}`, Caps{MaxName: 3}, "exceeds limit"},
		{"bad algorithm", `{"instance":"g","algorithm":"quantum"}`, Caps{}, "unknown algorithm"},
		{"bad initializer", `{"instance":"g","initializer":"magic"}`, Caps{}, "unknown initializer"},
		{"negative threads", `{"instance":"g","threads":-1}`, Caps{}, "threads"},
		{"too many threads", `{"instance":"g","threads":9}`, Caps{MaxThreads: 8}, "threads"},
		{"negative deadline", `{"instance":"g","deadline_ms":-5}`, Caps{}, "deadline_ms"},
		{"bad class", `{"instance":"g","class":"vip"}`, Caps{}, "unknown class"},
		{"vector too big", `{"instance":"g","mate_x":[1,2,3]}`, Caps{MaxVector: 2}, "entries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := DecodeRequest([]byte(tc.body), tc.caps)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("err = %v", err)
				}
				if req.Class != ClassInteractive {
					t.Fatalf("class = %q", req.Class)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
			var bad *BadRequestError
			if !errorAs(err, &bad) {
				t.Fatalf("err type %T, want *BadRequestError", err)
			}
		})
	}
}

func errorAs(err error, target *(*BadRequestError)) bool {
	e, ok := err.(*BadRequestError)
	if ok {
		*target = e
	}
	return ok
}

// ---- admission -------------------------------------------------------------

func TestAdmissionIdleAdmitsShortDeadline(t *testing.T) {
	a := NewAdmission(AdmissionConfig{InteractiveSlots: 1})
	// An idle server must admit even a nearly expired request: shed
	// prediction applies only when the request would have to queue.
	release, err := a.Admit(context.Background(), ClassInteractive, time.Now().Add(time.Millisecond))
	if err != nil {
		t.Fatalf("idle admit: %v", err)
	}
	release()
}

func TestAdmissionQueueFullSheds(t *testing.T) {
	a := NewAdmission(AdmissionConfig{InteractiveSlots: 1, MaxQueue: 1})
	far := time.Now().Add(time.Hour)
	hold, err := a.Admit(context.Background(), ClassInteractive, far)
	if err != nil {
		t.Fatal(err)
	}

	waited := make(chan error, 1)
	go func() {
		rel, err := a.Admit(context.Background(), ClassInteractive, far)
		if err == nil {
			rel()
		}
		waited <- err
	}()
	// Wait until the second request occupies the queue slot.
	for i := 0; ; i++ {
		if a.Stats()[0].Queued == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	_, err = a.Admit(context.Background(), ClassInteractive, far)
	shed, ok := err.(*ShedError)
	if !ok {
		t.Fatalf("err = %v, want *ShedError", err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", shed.RetryAfter)
	}

	hold()
	if err := <-waited; err != nil {
		t.Fatalf("queued request: %v", err)
	}
}

func TestAdmissionPredictedWaitSheds(t *testing.T) {
	a := NewAdmission(AdmissionConfig{InteractiveSlots: 1, MaxQueue: 100})
	hold, err := a.Admit(context.Background(), ClassInteractive, time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	// With the slot held, the EWMA (seeded at 250ms) predicts a wait far
	// beyond a 1ms deadline: shed immediately, don't queue doomed work.
	_, err = a.Admit(context.Background(), ClassInteractive, time.Now().Add(time.Millisecond))
	if _, ok := err.(*ShedError); !ok {
		t.Fatalf("err = %v, want *ShedError", err)
	}
}

func TestAdmissionClassesAreIndependent(t *testing.T) {
	a := NewAdmission(AdmissionConfig{InteractiveSlots: 1, BatchSlots: 1})
	far := time.Now().Add(time.Hour)
	rel1, err := a.Admit(context.Background(), ClassInteractive, far)
	if err != nil {
		t.Fatal(err)
	}
	defer rel1()
	// The interactive slot being held must not block batch.
	rel2, err := a.Admit(context.Background(), ClassBatch, far)
	if err != nil {
		t.Fatalf("batch admit: %v", err)
	}
	rel2()
}

// ---- single flight / cache -------------------------------------------------

func TestSingleFlightCollapse(t *testing.T) {
	c := newResultCache()
	key := cacheKey{seed: 42}

	res, fl, leader := c.begin(key)
	if res != nil || !leader {
		t.Fatalf("first begin: res=%v leader=%v", res, leader)
	}
	res2, fl2, leader2 := c.begin(key)
	if res2 != nil || leader2 || fl2 == nil {
		t.Fatalf("second begin: res=%v leader=%v fl=%v", res2, leader2, fl2)
	}

	done := make(chan *graftmatch.Result, 1)
	go func() {
		<-fl2.done
		done <- fl2.res.res
	}()

	want := &graftmatch.Result{Cardinality: 7, Complete: true}
	c.finish(key, fl, want)
	if got := <-done; got != want {
		t.Fatalf("follower got %v, want %v", got, want)
	}
	// Completed result is now cached.
	res3, _, leader3 := c.begin(key)
	if res3 == nil || res3.res != want || leader3 {
		t.Fatalf("third begin: res=%v leader=%v", res3, leader3)
	}
}

func TestIncompleteResultsNotCached(t *testing.T) {
	c := newResultCache()
	key := cacheKey{seed: 1}
	_, fl, _ := c.begin(key)
	c.finish(key, fl, &graftmatch.Result{Cardinality: 3, Complete: false})
	res, _, leader := c.begin(key)
	if res != nil || !leader {
		t.Fatalf("incomplete result was cached: res=%v leader=%v", res, leader)
	}
}

func TestLastGoodKeepsBest(t *testing.T) {
	c := newResultCache()
	c.noteResult("g", "a", &graftmatch.Result{Cardinality: 5, Complete: false})
	c.noteResult("g", "b", &graftmatch.Result{Cardinality: 9, Complete: true})
	c.noteResult("g", "c", &graftmatch.Result{Cardinality: 7, Complete: false}) // worse: ignored
	lg, ok := c.getLastGood("g")
	if !ok || lg.Cardinality != 9 || !lg.Complete || lg.Engine != "b" {
		t.Fatalf("lastGood = %+v ok=%v", lg, ok)
	}
}

// ---- HTTP endpoints --------------------------------------------------------

func smallRegistry(t *testing.T) func(dir string) {
	return func(dir string) {
		writeGraph(t, filepath.Join(dir, "small.el"), 200, 200, 3, 11, false)
		writeGraph(t, filepath.Join(dir, "square.el"), 40, 40, 2, 12, true)
	}
}

func TestMatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{}, smallRegistry(t))

	code, data := postJSON(t, ts.URL+"/match", `{"instance":"small","mates":true}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	m := decodeMatch(t, data)
	if !m.Complete || m.Degraded || m.Source != "computed" {
		t.Fatalf("first match = %+v", m)
	}
	if len(m.MateX) != 200 || len(m.MateY) != 200 {
		t.Fatalf("mates %d/%d", len(m.MateX), len(m.MateY))
	}

	// Identical request: served from cache.
	code, data = postJSON(t, ts.URL+"/match", `{"instance":"small","mates":true}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	if m2 := decodeMatch(t, data); m2.Source != "cache" || m2.Cardinality != m.Cardinality {
		t.Fatalf("second match = %+v, want cache of |M|=%d", m2, m.Cardinality)
	}

	// no_cache forces a fresh run.
	code, data = postJSON(t, ts.URL+"/match", `{"instance":"small","no_cache":true}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	if m3 := decodeMatch(t, data); m3.Source != "computed" || m3.Cardinality != m.Cardinality {
		t.Fatalf("no_cache match = %+v", m3)
	}
}

func TestMatchEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{}, smallRegistry(t))
	if code, _ := postJSON(t, ts.URL+"/match", `{"instance":"nope"}`); code != http.StatusNotFound {
		t.Fatalf("unknown instance: status %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/match", `{broken`); code != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/match")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /match: status %d", resp.StatusCode)
	}
}

// TestVerifyEndpoint pins the full /verify body of each outcome: a maximum
// matching, a valid matching one pair short, and an invalid one. The mates
// come from a Threads 1 solve on another server, so they and every reason
// text repeat. Each body is pinned twice on a fresh server: before ν is
// known, when VerifyMaximum searches (and the maximum pair, checked last,
// gives ν), and after, when a valid pair is only compared with ν.
func TestVerifyEndpoint(t *testing.T) {
	_, solver := newTestServer(t, Config{}, smallRegistry(t))
	_, data := postJSON(t, solver.URL+"/match", `{"instance":"small","mates":true,"threads":1}`)
	m := decodeMatch(t, data)

	// One matched pair removed: valid, but an augmenting path exists.
	shortX := append([]int32(nil), m.MateX...)
	shortY := append([]int32(nil), m.MateY...)
	for x, y := range shortX {
		if y >= 0 {
			shortX[x], shortY[y] = -1, -1
			break
		}
	}
	// Two X vertices pointed at the same Y: invalid.
	bad := append([]int32(nil), m.MateX...)
	first := -1
	for i, y := range bad {
		if y < 0 {
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		bad[i] = bad[first]
		break
	}
	s, ts := newTestServer(t, Config{}, smallRegistry(t))
	ins, _ := s.reg.Get("small")
	for _, known := range []bool{false, true} {
		for _, tc := range []struct {
			name         string
			mateX, mateY []int32
			want         string
		}{
			{"invalid", bad, m.MateY,
				`{"instance":"small","valid":false,"maximum":false,"reason":"matching: asymmetric mates: mateX[2]=36 but mateY[36]=1"}` + "\n"},
			{"one pair short", shortX, shortY,
				`{"instance":"small","valid":true,"maximum":false,"reason":"matching: not maximum: an augmenting path exists"}` + "\n"},
			{"maximum", m.MateX, m.MateY,
				`{"instance":"small","valid":true,"maximum":true}` + "\n"},
		} {
			if nu, ok := s.cache.maximum(ins.Fingerprint); ok != known || ok && nu != m.Cardinality {
				t.Fatalf("%s: ν %d known %v, want known %v", tc.name, nu, ok, known)
			}
			body, _ := json.Marshal(map[string]any{"instance": "small", "mate_x": tc.mateX, "mate_y": tc.mateY})
			code, data := postJSON(t, ts.URL+"/verify", string(body))
			if code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, code, data)
			}
			if string(data) != tc.want {
				t.Errorf("%s (ν known %v): body\n%s\nwant\n%s", tc.name, known, data, tc.want)
			}
		}
	}
}

// TestUncheckedAnswerIsNeverKept injects, through the compute seam, answers
// one augmenting path short of maximum but marked Complete, from two engines
// (msbfsgraft and pf). Such an answer must never be cached, never become the
// floor, never give ν, and never be served as complete. Once the instance
// has a real floor and ν is known, a short answer, an invalid one of ν
// pairs, and one whose Cardinality miscounts its mates are served from that
// floor.
func TestUncheckedAnswerIsNeverKept(t *testing.T) {
	s, ts := newTestServer(t, Config{}, smallRegistry(t))
	ins, _ := s.reg.Get("small")
	const (
		honest     = iota
		short      // one matched pair dropped
		broken     // ν pairs, one of them asymmetric
		miscounted // honest mates, Cardinality one short
	)
	var mode atomic.Int32
	mode.Store(short)
	s.compute = func(ctx context.Context, g *graftmatch.Graph, opts graftmatch.Options) (*graftmatch.Result, error) {
		res, err := graftmatch.MatchContext(ctx, g, opts)
		if err != nil || mode.Load() == honest {
			return res, err
		}
		if mode.Load() == miscounted {
			res.Cardinality--
			return res, nil
		}
		first := -1
		for x, y := range res.MateX {
			switch {
			case y == graftmatch.Unmatched:
			case mode.Load() == short:
				res.MateX[x], res.MateY[y] = graftmatch.Unmatched, graftmatch.Unmatched
				res.Cardinality--
				return res, nil
			case first < 0:
				first = x
			default:
				res.MateX[x] = res.MateX[first]
				return res, nil
			}
		}
		return res, nil
	}
	for _, alg := range []string{"msbfsgraft", "pf"} {
		body := fmt.Sprintf(`{"instance":"small","mates":true,"algorithm":%q}`, alg)
		// Twice: the second is a cache hit if the first was cached.
		for i := 0; i < 2; i++ {
			code, data := postJSON(t, ts.URL+"/match", body)
			if code == http.StatusOK {
				m := decodeMatch(t, data)
				t.Fatalf("%s: short answer served: source %q, complete %v, |M| %d", alg, m.Source, m.Complete, m.Cardinality)
			}
			if code != http.StatusInternalServerError || !strings.Contains(string(data), "failed its check") {
				t.Fatalf("%s: status %d: %s, want a 500 naming the failed check", alg, code, data)
			}
		}
	}
	if lg, ok := s.cache.getLastGood("small"); ok {
		t.Fatalf("short answer became the floor: %+v", lg)
	}
	if nu, ok := s.cache.maximum(ins.Fingerprint); ok {
		t.Fatalf("short answer gave ν = %d", nu)
	}

	mode.Store(honest)
	code, data := postJSON(t, ts.URL+"/match", `{"instance":"small","mates":true}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	full := decodeMatch(t, data)
	if full.Source != "computed" || !full.Complete || full.Degraded {
		t.Fatalf("after the seam is off: %+v, want a fresh complete answer", full)
	}
	if nu, ok := s.cache.maximum(ins.Fingerprint); !ok || nu != full.Cardinality {
		t.Fatalf("ν = %d (known %v) after a certified |M| = %d", nu, ok, full.Cardinality)
	}

	for _, m := range []int32{short, broken, miscounted} {
		mode.Store(m)
		for _, alg := range []string{"msbfsgraft", "pf"} {
			body := fmt.Sprintf(`{"instance":"small","algorithm":%q,"no_cache":true}`, alg)
			code, data = postJSON(t, ts.URL+"/match", body)
			if code != http.StatusOK {
				t.Fatalf("mode %d, %s, with a floor: status %d: %s", m, alg, code, data)
			}
			if got := decodeMatch(t, data); got.Source != "last-good" || !got.Degraded || got.Cardinality != full.Cardinality {
				t.Fatalf("mode %d, %s, with a floor: %+v, want the last-good |M| = %d", m, alg, got, full.Cardinality)
			}
		}
	}
}

// TestCachedMatesEncodedOnce sends concurrent first hits with mates at one
// cache entry: they all get the same stored bytes, built once, which equal
// appendMates' output (run under -race in CI).
func TestCachedMatesEncodedOnce(t *testing.T) {
	c := newResultCache()
	key := cacheKey{seed: 3}
	_, fl, _ := c.begin(key)
	mateX, mateY := []int32{2, -1, 0}, []int32{2, -1, 0, -1}
	c.finish(key, fl, &graftmatch.Result{MateX: mateX, MateY: mateY, Cardinality: 2, Complete: true})
	hit, _, _ := c.begin(key)
	got := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = hit.mates()
		}(i)
	}
	wg.Wait()
	want := appendMates(nil, mateX, mateY)
	for i, b := range got {
		if !bytes.Equal(b, want) || &b[0] != &got[0][0] {
			t.Fatalf("hit %d: %q at %p, want %q at %p, one copy for every hit", i, b, &b[0], want, &got[0][0])
		}
	}
}

func TestDecomposeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{}, smallRegistry(t))
	code, data := postJSON(t, ts.URL+"/decompose", `{"instance":"square","mates":true}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var d DecomposeResponse
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if !d.Match.Complete {
		t.Fatalf("decompose rode an incomplete matching: %+v", d.Match)
	}
	if d.HRows+d.SSize+d.VRows != 40 {
		t.Fatalf("row parts %d+%d+%d != 40", d.HRows, d.SSize, d.VRows)
	}
	if len(d.RowPerm) != 40 || len(d.ColPerm) != 40 {
		t.Fatalf("perm lengths %d/%d", len(d.RowPerm), len(d.ColPerm))
	}
	if d.Blocks <= 0 || d.LargestBlock <= 0 {
		t.Fatalf("blocks=%d largest=%d", d.Blocks, d.LargestBlock)
	}
}

func TestSolveEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{}, smallRegistry(t))
	code, data := postJSON(t, ts.URL+"/btfsolve", `{"instance":"square"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var sol SolveResponse
	if err := json.Unmarshal(data, &sol); err != nil {
		t.Fatal(err)
	}
	if sol.N != 40 || len(sol.X) != 40 || sol.Blocks <= 0 {
		t.Fatalf("solve = n=%d |x|=%d blocks=%d", sol.N, len(sol.X), sol.Blocks)
	}
	// Rectangular patterns cannot be solved.
	writeRect := func(dir string) { writeGraph(t, filepath.Join(dir, "rect.el"), 10, 20, 2, 3, false) }
	_, ts2 := newTestServer(t, Config{}, writeRect)
	if code, _ := postJSON(t, ts2.URL+"/btfsolve", `{"instance":"rect"}`); code != http.StatusBadRequest {
		t.Fatalf("rectangular solve: status %d", code)
	}
}

func TestInstancesAndHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{}, smallRegistry(t))
	resp, err := http.Get(ts.URL + "/instances")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("instances: %d %s", resp.StatusCode, data)
	}
	var listing struct {
		Instances []struct {
			Name string `json:"name"`
		} `json:"instances"`
		Admission []ClassStats `json:"admission"`
		Draining  bool         `json:"draining"`
	}
	if err := json.Unmarshal(data, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Instances) != 2 || len(listing.Admission) != 2 || listing.Draining {
		t.Fatalf("listing = %+v", listing)
	}

	for _, ep := range []string{"/healthz", "/readyz", "/metrics", "/status"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", ep, resp.StatusCode)
		}
	}
}

// TestDeadlineDegrades pins the degradation contract: a deadline far too
// small for the instance yields HTTP 200 with a valid degraded answer, never
// an error; once a complete matching exists, the same hopeless request is
// served from the last-good floor.
func TestDeadlineDegrades(t *testing.T) {
	_, ts := newTestServer(t, Config{}, func(dir string) {
		writeGraph(t, filepath.Join(dir, "big.el"), 30000, 30000, 4, 21, false)
	})

	// Phase 1: nothing cached, 1ms budget → partial result.
	code, data := postJSON(t, ts.URL+"/match",
		`{"instance":"big","deadline_ms":1,"threads":1,"initializer":"none","mates":true}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	m := decodeMatch(t, data)
	if !m.Degraded {
		t.Skipf("instance completed within 1ms on this machine; cannot exercise degradation (result %+v)", m)
	}
	if m.Source != "partial" && m.Source != "last-good" {
		t.Fatalf("degraded source = %q", m.Source)
	}

	// Phase 2: a full run establishes the last-good floor.
	code, data = postJSON(t, ts.URL+"/match", `{"instance":"big","deadline_ms":60000}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	full := decodeMatch(t, data)
	if !full.Complete {
		t.Fatalf("full run incomplete: %+v", full)
	}

	// Phase 3: the hopeless request now degrades to the complete
	// last-good matching (no_cache forces a real run attempt).
	code, data = postJSON(t, ts.URL+"/match",
		`{"instance":"big","deadline_ms":1,"threads":1,"initializer":"none","no_cache":true}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	m3 := decodeMatch(t, data)
	if !m3.Degraded {
		t.Skipf("instance completed within 1ms; cannot exercise last-good path (result %+v)", m3)
	}
	if m3.Source != "last-good" || m3.Cardinality != full.Cardinality || !m3.Complete {
		t.Fatalf("degraded answer = %+v, want last-good |M|=%d", m3, full.Cardinality)
	}
}

// TestEnginePanicDegrades: a contained engine panic is answered from the
// instance's last-good floor, and with a 500 naming the panic where the
// instance has no floor yet.
func TestEnginePanicDegrades(t *testing.T) {
	_, ts := newTestServer(t, Config{}, func(dir string) {
		writeGraph(t, filepath.Join(dir, "a.el"), 200, 200, 3, 31, false)
		writeGraph(t, filepath.Join(dir, "b.el"), 200, 200, 3, 32, false)
	})
	code, data := postJSON(t, ts.URL+"/match", `{"instance":"a"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	full := decodeMatch(t, data)

	core.TestHookWorkerFault = func(int) { panic("injected worker fault") }
	t.Cleanup(func() { core.TestHookWorkerFault = nil })
	// Threads 2 and no initializer, so the parallel top-down (where the
	// hook fires) runs.
	const faulty = `{"instance":%q,"no_cache":true,"threads":2,"initializer":"none"}`

	code, data = postJSON(t, ts.URL+"/match", fmt.Sprintf(faulty, "a"))
	if code != http.StatusOK {
		t.Fatalf("with a floor: status %d: %s", code, data)
	}
	m := decodeMatch(t, data)
	if !m.Degraded || m.Source != "last-good" || m.Cardinality != full.Cardinality {
		t.Fatalf("with a floor: %+v, want last-good |M|=%d", m, full.Cardinality)
	}

	code, data = postJSON(t, ts.URL+"/match", fmt.Sprintf(faulty, "b"))
	if code != http.StatusInternalServerError || !strings.Contains(string(data), "injected worker fault") {
		t.Fatalf("without a floor: status %d: %s, want 500 naming the panic", code, data)
	}
}

// TestEngineNamePerAlgorithm: a computed answer names the algorithm the
// request asked for, spelled as Algorithm.String().
func TestEngineNamePerAlgorithm(t *testing.T) {
	_, ts := newTestServer(t, Config{}, smallRegistry(t))
	for _, name := range []string{"msbfsgraft", "diropt", "msbfs", "pf", "pr", "hk"} {
		alg, err := graftmatch.ParseAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		code, data := postJSON(t, ts.URL+"/match", fmt.Sprintf(`{"instance":"small","algorithm":%q}`, name))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, code, data)
		}
		if m := decodeMatch(t, data); m.Engine != alg.String() {
			t.Errorf("%s: engine %q, want %q", name, m.Engine, alg.String())
		}
	}
}

// TestDrainLosesNoAdmittedRequest pins the graceful-drain contract: once
// Drain starts, readyz flips and new work bounces with 503, but the admitted
// in-flight request still completes and Drain waits for it.
func TestDrainLosesNoAdmittedRequest(t *testing.T) {
	s, ts := newTestServer(t, Config{}, smallRegistry(t))

	// Hold an admitted request open deterministically: a guarded handler
	// parked on a channel is exactly a long-running compute request from
	// the lifecycle's point of view.
	entered := make(chan struct{})
	release := make(chan struct{})
	h := s.guard(func(w http.ResponseWriter, _ *http.Request, _ *Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})
	inFlight := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodPost, "/match", strings.NewReader(`{"instance":"small"}`)))
		inFlight <- rec.Code
	}()
	<-entered

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	// Readiness flips as soon as draining is set.
	for i := 0; !s.isDraining(); i++ {
		if i > 2000 {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d", resp.StatusCode)
	}
	if code, _ := postJSON(t, ts.URL+"/match", `{"instance":"small"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain: %d", code)
	}

	// Drain must still be waiting on the admitted request.
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	// The admitted request must finish with a real answer, and only then
	// may the drain complete.
	close(release)
	if code := <-inFlight; code != http.StatusOK {
		t.Fatalf("in-flight request: %d", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Liveness stays up through and after the drain.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after drain: %d", resp.StatusCode)
	}
}

// TestPanicContainment drives a panicking handler through guard and checks
// the daemon answers 500 and keeps serving.
func TestPanicContainment(t *testing.T) {
	s, ts := newTestServer(t, Config{}, smallRegistry(t))
	h := s.guard(func(http.ResponseWriter, *http.Request, *Request) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/match", strings.NewReader(`{"instance":"small"}`))
	h(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d", rec.Code)
	}
	if got := s.met.panics.Value(); got != 1 {
		t.Fatalf("panics counter = %d", got)
	}
	// The server still serves real traffic afterwards.
	if code, data := postJSON(t, ts.URL+"/match", `{"instance":"small"}`); code != http.StatusOK {
		t.Fatalf("after panic: %d %s", code, data)
	}
}

// TestConcurrentMixedLoad soaks the server in-process with a mix of valid,
// hopeless-deadline, and invalid requests under -race.
func TestConcurrentMixedLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Admission: AdmissionConfig{InteractiveSlots: 2, BatchSlots: 1, MaxQueue: 4},
	}, smallRegistry(t))

	bodies := []string{
		`{"instance":"small"}`,
		`{"instance":"small","algorithm":"pf","class":"batch"}`,
		`{"instance":"square","seed":3}`,
		`{"instance":"small","deadline_ms":1,"no_cache":true}`,
		`{"instance":"missing"}`,
		`{bad json`,
	}
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		body := bodies[i%len(bodies)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/match", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
				http.StatusTooManyRequests, http.StatusInternalServerError:
			default:
				t.Errorf("unexpected status %d for %s", resp.StatusCode, body)
			}
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After header")
			}
		}()
	}
	wg.Wait()
}

// TestCheckpointRestoreSeedsLastGood proves the cross-process degradation
// floor: a checkpoint written by one server process becomes the next
// process's last-good answer before it has computed anything — for every
// instance, not only the ones whose snapshots are newest, since snapshot
// retention keeps a few files per directory.
func TestCheckpointRestoreSeedsLastGood(t *testing.T) {
	const instances = 5
	ckptDir := t.TempDir()
	populate := func(dir string) {
		for i := 0; i < instances; i++ {
			writeGraph(t, filepath.Join(dir, fmt.Sprintf("g%d.el", i)), 200, 200, 3, int64(11+i), false)
		}
	}

	_, ts := newTestServer(t, Config{CheckpointDir: ckptDir}, populate)
	want := make([]int64, instances)
	for i := range want {
		_, data := postJSON(t, ts.URL+"/match", fmt.Sprintf(`{"instance":"g%d"}`, i))
		first := decodeMatch(t, data)
		if !first.Complete {
			t.Fatalf("g%d: first run incomplete: %+v", i, first)
		}
		want[i] = first.Cardinality
	}

	// A fresh server process on the same checkpoint dir starts with every
	// instance's floor already in place.
	s2, _ := newTestServer(t, Config{CheckpointDir: ckptDir}, populate)
	for i, card := range want {
		lg, ok := s2.cache.getLastGood(fmt.Sprintf("g%d", i))
		if !ok {
			t.Errorf("g%d: restored server has no last-good floor", i)
			continue
		}
		if lg.Cardinality != card {
			t.Errorf("g%d: restored floor |M|=%d, want %d", i, lg.Cardinality, card)
		}
	}
}
