// Package core implements the paper's contribution: the MS-BFS-Graft
// maximum cardinality matching algorithm (Algorithms 3–7) — a multi-source,
// level-synchronous alternating BFS with direction optimization and tree
// grafting — in serial and shared-memory parallel form.
//
// # Algorithm
//
// Each phase (1) grows an alternating BFS forest rooted at the unmatched X
// vertices, switching between top-down and bottom-up traversal by frontier
// size; (2) augments the matching along the vertex-disjoint augmenting
// paths found, one per renewable tree; and (3) reconstructs the next
// frontier, either by grafting Y vertices of renewable trees onto the
// surviving active trees (a bottom-up sweep over renewableY) or, when the
// renewable forest dominates, by destroying all trees and restarting from
// the unmatched X vertices. The algorithm terminates when a phase finds no
// augmenting path; Theorem 1 of the paper proves the result is maximum.
package core

import (
	"graftmatch/internal/obs"
	"graftmatch/internal/par"
)

// DefaultAlpha is the direction-switch and graft-decision threshold; the
// paper found α ≈ 5 performs best for MS-BFS-Graft (§III-B).
const DefaultAlpha = 5.0

// Options configures a run of the engine. The zero value with Defaults()
// applied reproduces the full MS-BFS-Graft algorithm.
type Options struct {
	// Threads is the number of workers; 0 means GOMAXPROCS.
	Threads int

	// Alpha is the threshold α: top-down is used while
	// |F| < numUnvisitedY/α, and grafting while |activeX| > |renewableY|/α.
	// 0 means DefaultAlpha.
	Alpha float64

	// DirectionOptimized enables bottom-up traversal (Beamer et al.);
	// disabled it always traverses top-down (the MS-BFS baseline and the
	// Fig. 7 ablation).
	DirectionOptimized bool

	// Grafting enables the tree-grafting frontier reconstruction;
	// disabled, every phase restarts from the unmatched X vertices.
	Grafting bool

	// TraceFrontiers records per-level frontier sizes into
	// Stats.FrontierTrace (Fig. 8). Costs one append per level.
	TraceFrontiers bool

	// OnPhase, when non-nil, is invoked on the driver goroutine after every
	// completed phase (a consistent point: no parallel region is active and
	// the mate arrays form a valid matching) with the phase count and the
	// current cardinality. Cancelling a RunCtx context from the hook stops
	// the engine at this phase boundary.
	OnPhase func(phase, cardinality int64)

	// Recorder, when non-nil, receives live metrics (edges traversed,
	// per-step times, grafts/rebuilds, frontier sizes, queue reservations)
	// and one span per phase/step for the observability surface. All
	// recording happens on the driver goroutine at level/phase granularity;
	// the nil default degrades every instrumentation point to a nil check.
	Recorder *obs.Recorder

	// Pool supplies the workers for every parallel region of the run. Nil
	// means per-call goroutine fan-out; a shared pool lets many concurrent
	// runs split a fixed worker budget instead of each spawning its own.
	Pool *par.Pool
}

// Defaults fills unset fields with the paper's defaults and returns the
// resulting options (full MS-BFS-Graft when both features are left enabled).
func (o Options) Defaults() Options {
	if o.Threads <= 0 {
		o.Threads = par.DefaultWorkers()
	}
	if o.Alpha <= 0 {
		o.Alpha = DefaultAlpha
	}
	return o
}

// FullOptions returns Options for the complete MS-BFS-Graft algorithm with
// p threads (direction optimization and grafting enabled).
func FullOptions(p int) Options {
	return Options{Threads: p, DirectionOptimized: true, Grafting: true}.Defaults()
}
