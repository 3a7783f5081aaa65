// Package serve is the matching-as-a-service layer under cmd/matchd: a
// long-lived HTTP daemon that loads a registry of named graph instances and
// serves match / verify / DM-decompose / BTF-solve requests to many
// concurrent clients.
//
// Robustness is the core design, not an afterthought. Per-request cost in
// bipartite matching is wildly instance-dependent (Chandran–Hochbaum), so
// the layer is built around four defenses:
//
//   - an admission controller with a bounded run queue and per-class
//     concurrency limits that sheds load with 429 + Retry-After instead of
//     letting the queue collapse;
//   - per-request deadlines propagated into the engines' MatchContext
//     semantics, so an over-budget run stops at a consistent boundary and
//     yields a valid partial matching, never a hung connection;
//   - a last-good floor: the best matching any run has reached for each
//     instance. A run that fails, or stops below the floor, is answered
//     from it; a failed run with no floor answers 500 with the cause;
//   - one shared worker pool across all requests (par.Pool), so total
//     compute parallelism stays bounded no matter the offered load.
package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"graftmatch"
	"graftmatch/internal/checkpoint"
)

// Instance is one named graph in the registry, loaded once at startup and
// immutable afterwards.
type Instance struct {
	Name        string
	Path        string
	Graph       *graftmatch.Graph
	Fingerprint checkpoint.Fingerprint
}

// Registry maps instance names to loaded graphs. It is immutable after
// LoadRegistry, so lookups need no locking.
type Registry struct {
	byName map[string]*Instance
	names  []string
}

// graphExts are the file suffixes LoadRegistry admits (ReadGraphFile's
// dispatch set).
var graphExts = []string{".mtx", ".el", ".txt", ".mtx.gz", ".el.gz", ".txt.gz"}

// instanceName derives the registry name from a file name: the base with
// every graph extension stripped ("web-Google.mtx.gz" → "web-Google").
func instanceName(file string) (string, bool) {
	for _, ext := range graphExts {
		if strings.HasSuffix(file, ext) {
			return strings.TrimSuffix(file, ext), true
		}
	}
	return "", false
}

// LoadRegistry loads every graph file in dir as a named instance. Non-graph
// files are ignored; an unreadable or malformed graph file fails the load
// (a daemon must not come up ready with a silently missing instance), as
// does a directory yielding no instances or two files claiming one name.
func LoadRegistry(dir string) (*Registry, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: registry: %w", err)
	}
	r := &Registry{byName: make(map[string]*Instance)}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name, ok := instanceName(e.Name())
		if !ok || name == "" || name == "." || name == ".." {
			continue // not a name that can own a checkpoint subdirectory
		}
		if prev, dup := r.byName[name]; dup {
			return nil, fmt.Errorf("serve: registry: instance %q defined by both %s and %s",
				name, prev.Path, e.Name()) //lint:ignore hotpath-alloc duplicate-name rejection exits startup load; never steady state
		}
		path := filepath.Join(dir, e.Name())
		g, err := graftmatch.ReadGraphFile(path)
		if err != nil {
			return nil, fmt.Errorf("serve: registry: %s: %w", path, err) //lint:ignore hotpath-alloc unreadable-file rejection exits startup load
		}
		//lint:ignore hotpath-alloc startup-only: one Instance per registry file, loaded once per process
		r.byName[name] = &Instance{
			Name:        name,
			Path:        path,
			Graph:       g,
			Fingerprint: checkpoint.GraphFingerprint(g),
		}
		r.names = append(r.names, name)
	}
	if len(r.names) == 0 {
		return nil, fmt.Errorf("serve: registry: no graph files in %s", dir)
	}
	sort.Strings(r.names)
	return r, nil
}

// Get returns the named instance.
func (r *Registry) Get(name string) (*Instance, bool) {
	ins, ok := r.byName[name]
	return ins, ok
}

// Names returns the instance names in sorted order.
func (r *Registry) Names() []string { return r.names }
