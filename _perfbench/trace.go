package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory; write puts them on disk
// when the run ends. Spans are recorded around the benchmark's own calls into
// each layer's public functions, never inside the program.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op's root span
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id, so later spans can name it
// as their parent.
func (t *tracer) add(layer, name string, parent int, op int64, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// reserve allocates the id of a root span whose end is not known yet, so its
// children can be recorded first; finish fills it in.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{})
	return len(t.spans)
}

func (t *tracer) finish(id int, layer, name string, op int64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{
		ID: id, Op: op, Layer: layer, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	}
}

// selfMS returns, per layer, the summed self time in milliseconds: each
// span's duration minus its children's. The benchmark's child spans follow
// one another and never overlap.
func (t *tracer) selfMS() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfNS := map[string]int64{}
	for _, s := range t.spans {
		d := s.End - s.Start
		selfNS[s.Layer] += d
		if s.Parent != 0 {
			selfNS[t.spans[s.Parent-1].Layer] -= d
		}
	}
	self := map[string]float64{}
	for layer, ns := range selfNS {
		self[layer] = float64(ns) / 1e6
	}
	return self
}

// write stores the spans as JSON lines in dir and returns the file path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finishTrace writes the span file, reports it on stderr, and stores the
// per-op self time of every traced layer.
func finishTrace(t *tracer, cfg config, workload string, ops int, rep *report) error {
	path, err := t.write(cfg.outDir, workload, cfg.seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(t.spans), path)
	n := float64(max(ops, 1))
	for layer, v := range t.selfMS() {
		rep.layer["self."+layer+"_ms"] = v / n
	}
	return nil
}
