package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"graftmatch"
	"graftmatch/internal/gen"
	"graftmatch/internal/mmio"
)

func TestParseChaosSpec(t *testing.T) {
	ch, err := parseChaosSpec("latency=2ms,jitter=3ms,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if ch.Latency != 2*time.Millisecond || ch.Jitter != 3*time.Millisecond || ch.Seed != 7 {
		t.Fatalf("parsed %+v", ch)
	}
	// A stream socket never loses or repeats a frame, so drop and dup are
	// not keys.
	for _, bad := range []string{"latency", "rate=0.1", "latency=x", "jitter=-1ms", "seed=x", "drop=0.05", "dup=0.05"} {
		if _, err := parseChaosSpec(bad); err == nil {
			t.Errorf("spec %q: want error", bad)
		}
	}
}

func TestDistFlagValidation(t *testing.T) {
	path := writeTestMatrix(t)
	cases := [][]string{
		{"-dist-listen", "127.0.0.1:0", "-dist-join", "127.0.0.1:1", path}, // both roles
		{"-dist-listen", "127.0.0.1:0", path},                              // no -dist-ranks
		{"-dist-listen", "127.0.0.1:0", "-dist-ranks", "2", "-json", path},
		{"-dist-join", "127.0.0.1:1", "-dist-chaos", "bogus", path},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}

// TestDistCLIUnixSocket drives the whole CLI surface in-process: one run()
// call is the coordinator on a unix socket, two more are the rank workers —
// one of them behind a -dist-chaos proxy, which also pins the proxy's
// ability to front a unix-socket target (it once hardcoded tcp).
// The socket path is chosen up front, so no port needs to be communicated.
func TestDistCLIUnixSocket(t *testing.T) {
	path := writeTestMatrix(t)
	out := filepath.Join(t.TempDir(), "m.txt")
	sock := filepath.Join(t.TempDir(), "graft.sock")
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	launch := func(args []string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- run(args)
		}()
	}
	launch([]string{"-dist-listen", sock, "-dist-ranks", "2", "-dist-respawn=false",
		"-dist-hb", "50ms", "-verify", "-stats", "-out", out, path})
	launch([]string{"-dist-join", sock, path})
	launch([]string{"-dist-join", sock, "-dist-chaos", "latency=1ms,jitter=1ms,seed=3", path})
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if data, err := os.ReadFile(out); err != nil || len(data) == 0 {
		t.Fatalf("matching file: err=%v, %d bytes", err, len(data))
	}
}

// TestDistE2EKillRank is the acceptance run for the distributed runtime: a
// real maxmatch binary coordinates 4 real worker processes over TCP, one
// worker is SIGKILLed mid-run, and the coordinator must detect the death,
// respawn a replacement, and still finish with a Verify-clean matching of
// the same cardinality as the single-process engine.
func TestDistE2EKillRank(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and spawns 5 processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "maxmatch")
	if out, err := exec.Command("go", "build", "-o", bin, "graftmatch/cmd/maxmatch").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Big enough that the phase loop is still running when the kill lands,
	// small enough to keep the test fast.
	g := gen.ER(20000, 20000, 120000, 11)
	gpath := filepath.Join(dir, "g.mtx")
	if err := mmio.WriteFile(gpath, g); err != nil {
		t.Fatal(err)
	}
	ref, err := graftmatch.Match(g, graftmatch.Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin,
		"-dist-listen", "127.0.0.1:0", "-dist-ranks", "4", "-dist-spawn",
		"-dist-hb", "25ms", "-obs-addr", "127.0.0.1:0", "-verify", "-stats", gpath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Scan the coordinator's stdout live: learn the worker pids from the
	// spawn lines and the obs address from the serving line, SIGKILL rank 1
	// the moment the first phase completes, and scrape /trace + /cluster
	// mid-run at each later phase boundary until spans from at least two
	// distinct ranks have landed in the coordinator's trace.
	pids := map[int]int{}
	killed := false
	var obsURL string
	rankLanes := map[int]bool{}
	var clusterOK bool
	var transcript strings.Builder
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		transcript.WriteString(line)
		transcript.WriteByte('\n')
		var rank, pid int
		if _, err := fmt.Sscanf(line, "dist: spawned rank %d pid=%d", &rank, &pid); err == nil {
			pids[rank] = pid
			continue
		}
		if addr, ok := strings.CutPrefix(line, "observability: serving http://"); ok {
			obsURL = "http://" + addr[:strings.IndexByte(addr, '/')]
			continue
		}
		if !strings.HasPrefix(line, "phase ") {
			continue
		}
		if !killed && pids[1] != 0 {
			proc, err := os.FindProcess(pids[1])
			if err != nil {
				t.Fatalf("find rank 1 pid %d: %v", pids[1], err)
			}
			if err := proc.Kill(); err != nil {
				t.Fatalf("kill rank 1: %v", err)
			}
			killed = true
			continue
		}
		if obsURL != "" && (len(rankLanes) < 2 || !clusterOK) {
			scrapeClusterObs(t, obsURL, rankLanes, &clusterOK)
		}
	}
	err = cmd.Wait()
	out := transcript.String()
	if err != nil {
		t.Fatalf("coordinator: %v\nstdout:\n%s\nstderr:\n%s", err, out, stderr.String())
	}
	if !killed {
		t.Fatalf("run finished before a phase line appeared — never killed a rank\nstdout:\n%s", out)
	}
	for _, want := range []string{
		"dist: rank 1 died; respawning",
		fmt.Sprintf("maximum matching cardinality: %d", ref.Cardinality),
		"verified: matching is valid and maximum",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q\nstdout:\n%s\nstderr:\n%s", want, out, stderr.String())
		}
	}
	if !regexp.MustCompile(`rank deaths: [1-9]`).MatchString(out) {
		t.Errorf("stats report no rank deaths\nstdout:\n%s", out)
	}
	if obsURL == "" {
		t.Errorf("coordinator never printed the observability serving line\nstdout:\n%s", out)
	}
	if len(rankLanes) < 2 {
		t.Errorf("mid-run /trace scrapes saw spans from ranks %v, want >= 2 distinct ranks", rankLanes)
	}
	if !clusterOK {
		t.Errorf("mid-run /cluster scrapes never returned a full snapshot (trace id + 4 ranks)")
	}
	if !regexp.MustCompile(`run trace: [0-9a-f]{16}`).MatchString(out) {
		t.Errorf("stdout missing the run trace line\nstdout:\n%s", out)
	}
}

// scrapeClusterObs polls the coordinator's observability surface mid-run.
// Scrapes are best-effort — the run may finish between the phase line and
// the GET — so errors leave the accumulators unchanged; the caller asserts
// on the union of all scrapes.
func scrapeClusterObs(t *testing.T, obsURL string, rankLanes map[int]bool, clusterOK *bool) {
	t.Helper()
	if resp, err := http.Get(obsURL + "/trace"); err == nil {
		var ct struct {
			TraceEvents []struct {
				Ph  string `json:"ph"`
				Pid int    `json:"pid"`
			} `json:"traceEvents"`
		}
		if json.NewDecoder(resp.Body).Decode(&ct) == nil {
			for _, ev := range ct.TraceEvents {
				// Lane 0 (pid 1) is the coordinator's own local lane; pids
				// >= 2 are worker rank lanes (pid = rank + 2).
				if ev.Ph != "M" && ev.Pid >= 2 {
					rankLanes[ev.Pid-2] = true
				}
			}
		}
		resp.Body.Close()
	}
	if resp, err := http.Get(obsURL + "/cluster"); err == nil {
		var cs struct {
			Trace string `json:"trace"`
			Ranks []struct {
				Rank  int  `json:"rank"`
				Alive bool `json:"alive"`
			} `json:"ranks"`
		}
		if json.NewDecoder(resp.Body).Decode(&cs) == nil &&
			cs.Trace != "" && len(cs.Ranks) == 4 {
			*clusterOK = true
		}
		resp.Body.Close()
	}
}
