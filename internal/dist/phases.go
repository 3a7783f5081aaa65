package dist

import (
	"context"
	"time"
)

// superstepper is what the distributed phase schedule needs from a runtime:
// the in-process Engine delivers outboxes by slice concatenation, the
// Coordinator by framed connections to worker processes.
type superstepper interface {
	// round runs one schedule op on every rank and then exchanges: each
	// rank's outboxes become the destination ranks' inboxes for the next
	// round, and the newly renewable roots reach every rank before its next
	// op. It returns the ranks' summed ops.exec results and the number of
	// point-to-point messages routed.
	round(ctx context.Context, op byte) (info [2]int64, msgs int64, err error)
	// phaseDone marks a phase boundary: augmentation has drained, so the
	// mate arrays are consistent and the phase can be exported. When census
	// is set it also runs the census on every rank and returns the summed
	// (active X, renewable Y) pair the graft decision reads.
	phaseDone(ctx context.Context, phaseStart time.Time, census bool) (info [2]int64, err error)
}

// runPhases is the distributed MS-BFS-Graft superstep schedule, shared by
// both runtimes. It seeds a tree at every unmatched X, then runs phases
// until one finds no augmenting path. A phase grows the forest level-
// synchronously (expand, claim and apply rounds per level), augments every
// discovered path by token passing (an aug-init round, then aug-step rounds
// until no walk traffic remains: one per change of owner along the longest
// walk), and marks the boundary. The census rides the boundary, and
// decides between the four graft rounds of Algorithm 7 (query, accept,
// adopt, apply) and a rebuild from the unmatched X vertices. The last phase,
// which found no path, needs no census.
//
// stats receives edges traversed (claims and graft queries sent),
// augmenting paths, phases, grafts and rebuilds; the runtime counts its own
// supersteps and messages. The context is checked at phase starts and
// between BFS levels, where the mate arrays are untouched, and never while
// augmenting walks are in flight.
func runPhases(ctx context.Context, rt superstepper, stats *Stats, grafting bool, alpha float64) error {
	info, _, err := rt.round(ctx, opSeed)
	if err != nil {
		return err
	}
	frontier := info[0]
	var msgs int64
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		phaseStart := time.Now()

		for frontier > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			if _, msgs, err = rt.round(ctx, opExpand); err != nil {
				return err
			}
			stats.EdgesTraversed += msgs
			if _, _, err = rt.round(ctx, opClaim); err != nil {
				return err
			}
			if info, _, err = rt.round(ctx, opApply); err != nil {
				return err
			}
			frontier = info[0]
		}

		if info, msgs, err = rt.round(ctx, opAugInit); err != nil {
			return err
		}
		paths := info[0]
		for msgs > 0 {
			if _, msgs, err = rt.round(ctx, opAugStep); err != nil {
				return err
			}
		}
		stats.AugPaths += paths
		stats.Phases++
		if info, err = rt.phaseDone(ctx, phaseStart, paths > 0); err != nil {
			return err
		}
		if paths == 0 {
			return nil
		}

		if activeX, renewY := info[0], info[1]; grafting && float64(activeX) > float64(renewY)/alpha {
			stats.Grafts++
			if _, msgs, err = rt.round(ctx, opGraftQuery); err != nil {
				return err
			}
			stats.EdgesTraversed += msgs
			if _, _, err = rt.round(ctx, opGraftAccept); err != nil {
				return err
			}
			if _, _, err = rt.round(ctx, opGraftAdopt); err != nil {
				return err
			}
			if info, _, err = rt.round(ctx, opGraftApply); err != nil {
				return err
			}
		} else {
			stats.Rebuilds++
			if info, _, err = rt.round(ctx, opRebuild); err != nil {
				return err
			}
		}
		frontier = info[0]
	}
}
