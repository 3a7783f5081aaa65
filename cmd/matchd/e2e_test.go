package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"graftmatch/internal/gen"
	"graftmatch/internal/leaktest"
	"graftmatch/internal/mmio"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

func TestRunFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("no -registry: want error")
	}
	if err := run([]string{"-registry", t.TempDir()}, &out); err == nil {
		t.Error("empty registry: want error")
	}
	if err := run([]string{"-registry", t.TempDir(), "extra"}, &out); err == nil {
		t.Error("positional arg: want error")
	}
}

// matchdProc is a running matchd binary under test.
type matchdProc struct {
	cmd    *exec.Cmd
	base   string
	stdout *syncBuffer
	stderr bytes.Buffer
	waited chan error
}

type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) add(line string) {
	s.mu.Lock()
	s.b.WriteString(line)
	s.b.WriteByte('\n')
	s.mu.Unlock()
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startMatchd builds the binary once per test, starts it on a free port with
// args, and waits until /readyz answers 200.
func startMatchd(t *testing.T, registryDir string, extra ...string) *matchdProc {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "matchd")
	if out, err := exec.Command("go", "build", "-o", bin, "graftmatch/cmd/matchd").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	args := append([]string{"-registry", registryDir, "-addr", "127.0.0.1:0"}, extra...)
	p := &matchdProc{cmd: exec.Command(bin, args...), stdout: &syncBuffer{}, waited: make(chan error, 1)}
	p.cmd.Stderr = &p.stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = p.cmd.Process.Kill()
		<-p.waited
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.stdout.add(line)
			var a string
			if _, err := fmt.Sscanf(line, "matchd: listening on http://%s ", &a); err == nil {
				select {
				case addrCh <- a:
				default:
				}
			}
		}
		p.waited <- p.cmd.Wait()
		close(p.waited)
	}()

	select {
	case a := <-addrCh:
		p.base = "http://" + a
	case <-time.After(30 * time.Second):
		t.Fatalf("matchd never announced its address\nstdout:\n%s\nstderr:\n%s", p.stdout, p.stderr.String())
	}
	for i := 0; ; i++ {
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if i > 200 {
			t.Fatalf("matchd never became ready\nstdout:\n%s\nstderr:\n%s", p.stdout, p.stderr.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
	return p
}

func (p *matchdProc) post(t *testing.T, path, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(p.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// waitForAdmitted polls /instances until the interactive class has admitted
// at least want requests: busy compute slots plus requests queued for one.
func waitForAdmitted(t *testing.T, p *matchdProc, want int64) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		resp, err := http.Get(p.base + "/instances")
		if err == nil {
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var listing struct {
				Admission []struct {
					Class  string `json:"class"`
					Active int64  `json:"active"`
					Queued int64  `json:"queued"`
				} `json:"admission"`
			}
			if json.Unmarshal(data, &listing) == nil {
				for _, c := range listing.Admission {
					if c.Class == "interactive" && c.Active+c.Queued >= want {
						return
					}
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("fewer than %d requests were ever admitted", want)
}

// writeRegistry builds the fixture registry: "fast" is small, "slow" is big
// enough that single-threaded runs occupy a compute slot for a while.
func writeRegistry(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, g := range []struct {
		name            string
		nx, ny, m, seed int
	}{
		{"fast", 500, 500, 2000, 5},
		{"slow", 40000, 40000, 200000, 6},
		// deep exists to stretch single-threaded runs to ~100ms+, wide
		// enough to observe the drain window from outside.
		{"deep", 300000, 300000, 1200000, 7},
	} {
		if err := mmio.WriteFile(filepath.Join(dir, g.name+".mtx"),
			gen.ER(int32(g.nx), int32(g.ny), int64(g.m), int64(g.seed))); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestMatchdE2ESoak is the acceptance run for the daemon's robustness
// contract: a real matchd binary on a fixture registry is soaked by
// concurrent clients (valid, over-deadline, and shed-inducing), /metrics is
// scraped mid-soak, and a SIGTERM drain must lose zero admitted in-flight
// requests while /readyz flips before exit.
func TestMatchdE2ESoak(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and soaks it with concurrent clients")
	}
	p := startMatchd(t, writeRegistry(t),
		"-workers", "2", "-interactive-slots", "2", "-max-queue", "2",
		"-deadline", "5s", "-max-deadline", "30s")

	// --- phase 1: valid traffic ---------------------------------------
	code, hdr1, data := p.post(t, "/match", `{"instance":"fast"}`)
	if code != http.StatusOK {
		t.Fatalf("fast match: %d %s", code, data)
	}
	reqID := hdr1.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("fast match response has no X-Request-Id header")
	}
	var m struct {
		Cardinality int64  `json:"cardinality"`
		Complete    bool   `json:"complete"`
		Source      string `json:"source"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if !m.Complete || m.Cardinality <= 0 {
		t.Fatalf("fast match = %+v", m)
	}
	if code, _, data = p.post(t, "/match", `{"instance":"fast"}`); code != http.StatusOK {
		t.Fatalf("cached match: %d %s", code, data)
	} else if err := json.Unmarshal(data, &m); err != nil || m.Source != "cache" {
		t.Fatalf("second match source = %q (err %v)", m.Source, err)
	}

	// Request correlation: the minted X-Request-Id from the first match must
	// appear in the trace ring (spans tagged with its trace id) and in the
	// one-line-per-request log on stdout.
	resp0, err := http.Get(p.base + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	traceBody, _ := io.ReadAll(resp0.Body)
	resp0.Body.Close()
	if !strings.Contains(string(traceBody), reqID) {
		t.Errorf("request id %s from the match response not found in /trace", reqID)
	}
	// The log line flushes after the response is written; give the pipe
	// scanner a moment to deliver it.
	logged := false
	for i := 0; i < 200 && !logged; i++ {
		logged = strings.Contains(p.stdout.String(), `"id":"`+reqID+`"`)
		if !logged {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !logged {
		t.Errorf("request id %s has no structured log line on stdout\nstdout:\n%s", reqID, p.stdout)
	}

	// --- phase 2: concurrent soak -------------------------------------
	// 16 clients: distinct seeds defeat the single-flight collapse, so
	// with 2 slots and a queue of 2 most of them must be shed with 429 +
	// Retry-After; over-deadline requests must degrade to 200, not error.
	var (
		wg        sync.WaitGroup
		ok200     atomic.Int64
		shed429   atomic.Int64
		degraded  atomic.Int64
		badStatus atomic.Int64
	)
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body string
			if i%4 == 0 {
				// Hopeless deadline: must yield a degraded 200.
				body = fmt.Sprintf(`{"instance":"slow","deadline_ms":1,"threads":1,"initializer":"none","seed":%d,"no_cache":true}`, i)
			} else {
				body = fmt.Sprintf(`{"instance":"slow","threads":1,"seed":%d}`, i)
			}
			code, hdr, data := p.post(t, "/match", body)
			switch code {
			case http.StatusOK:
				ok200.Add(1)
				var r struct {
					Degraded bool `json:"degraded"`
				}
				_ = json.Unmarshal(data, &r)
				if r.Degraded {
					degraded.Add(1)
				}
			case http.StatusTooManyRequests:
				shed429.Add(1)
				if hdr.Get("Retry-After") == "" {
					t.Error("429 without Retry-After header")
				}
				var e struct {
					RetryAfterMS int64 `json:"retry_after_ms"`
				}
				if err := json.Unmarshal(data, &e); err != nil || e.RetryAfterMS <= 0 {
					t.Errorf("429 body lacks retry_after_ms: %s", data)
				}
			default:
				badStatus.Add(1)
				t.Errorf("unexpected status %d: %s", code, data)
			}
		}()
	}

	// --- phase 3: scrape /metrics mid-soak ----------------------------
	time.Sleep(100 * time.Millisecond)
	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics mid-soak: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"graftmatch_serve_requests_total",
		"graftmatch_serve_shed_total",
		"graftmatch_serve_inflight",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	wg.Wait()

	if ok200.Load() == 0 || badStatus.Load() != 0 {
		t.Fatalf("soak: ok=%d shed=%d bad=%d", ok200.Load(), shed429.Load(), badStatus.Load())
	}
	if shed429.Load() == 0 {
		t.Errorf("soak never shed: ok=%d degraded=%d (want at least one 429)", ok200.Load(), degraded.Load())
	}

	// --- phase 4: SIGTERM drain loses no admitted request -------------
	// Four requests fill both slots and the queue (none shed); all four
	// must come back 200 even though the drain starts while they run.
	const cohort = 4
	inFlight := make(chan int, cohort)
	for i := 0; i < cohort; i++ {
		i := i
		go func() {
			code, _, _ := p.post(t, "/match",
				fmt.Sprintf(`{"instance":"deep","deadline_ms":20000,"threads":1,"initializer":"none","seed":%d,"no_cache":true}`, 1000+i))
			inFlight <- code
		}()
	}
	// Signal only once all four are admitted (both compute slots busy, the
	// other two queued), so the drain provably overlaps admitted work and
	// no cohort request can arrive after it began.
	waitForAdmitted(t, p, cohort)
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Readiness must flip before the process exits.
	sawNotReady := false
	for i := 0; i < 2000; i++ {
		resp, err := http.Get(p.base + "/readyz")
		if err != nil {
			break // listener closed: process completed its drain
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			sawNotReady = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !sawNotReady {
		t.Error("/readyz never flipped to 503 during drain")
	}
	for i := 0; i < cohort; i++ {
		if code := <-inFlight; code != http.StatusOK {
			t.Errorf("in-flight request %d during drain: status %d (want 200 — drain must not drop admitted work)", i, code)
		}
	}
	if err := <-p.waited; err != nil {
		t.Fatalf("matchd exit: %v\nstdout:\n%s\nstderr:\n%s", err, p.stdout, p.stderr.String())
	}
	out := p.stdout.String()
	for _, want := range []string{"terminated received; draining", "drain complete; exiting"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q\nstdout:\n%s", want, out)
		}
	}
}
