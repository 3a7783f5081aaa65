package dist

import (
	"graftmatch/internal/bipartite"
)

// ops is the per-rank compute half of every BSP superstep, shared verbatim by
// the in-process simulation (Engine) and the multi-process runtime
// (Coordinator/Worker): one method per superstep body, reading and mutating a
// single rank's state and writing outbound messages into its outboxes. What
// differs between the two runtimes is only how outboxes become inboxes — a
// slice concatenation in the simulation, framed connections over sockets in
// the cluster — so keeping the bodies here is what makes "the worker computes
// exactly what the simulated rank computes" a structural fact rather than a
// test hope.
type ops struct {
	g    *bipartite.Graph
	part Partition
}

// newRank allocates the state one rank owns under part. K outboxes are
// sized for the partition; nx is the global X count (the replicated
// renewable bitmap covers every possible root).
func newRank(part Partition, nx int32, id int) *rank {
	xlo, xhi := part.RangeX(id)
	ylo, yhi := part.RangeY(id)
	return &rank{
		id: id, xlo: xlo, xhi: xhi, ylo: ylo, yhi: yhi,
		rootX:     make([]int32, xhi-xlo),
		mateX:     make([]int32, xhi-xlo),
		leaf:      make([]int32, xhi-xlo),
		visited:   make([]bool, yhi-ylo),
		parentY:   make([]int32, yhi-ylo),
		rootY:     make([]int32, yhi-ylo),
		mateY:     make([]int32, yhi-ylo),
		renewable: make([]bool, nx),
		out:       make([][]message, part.K),
	}
}

// scatter installs the mate arrays for r's block (slices indexed from
// r.xlo/r.ylo) and resets every piece of derived search state — the full
// "load a matching and forget everything else" reset a recovery rescatter
// needs. Fresh ranks pass their initial matching through the same path.
func (o ops) scatter(r *rank, mateX, mateY []int32) {
	for i := range r.mateX {
		r.mateX[i] = mateX[i]
		r.rootX[i] = none
		r.leaf[i] = none
	}
	for i := range r.mateY {
		r.mateY[i] = mateY[i]
		r.rootY[i] = none
		r.parentY[i] = none
		r.visited[i] = false
	}
	for i := range r.renewable {
		r.renewable[i] = false
	}
	r.frontier = r.frontier[:0]
	r.newRenewable = r.newRenewable[:0]
	r.renewY = r.renewY[:0]
	r.activeY = r.activeY[:0]
	r.paths = 0
	for dst := range r.out {
		r.out[dst] = r.out[dst][:0]
	}
	r.in = r.in[:0]
}

// inKinds lists, per op, the message kinds its inbox may hold: those the
// round before it in the schedule sends. A worker rejects a record of any
// other kind before it runs the op (checkStep); ops absent here read no
// inbox at all.
var inKinds = [opReportMates + 1]uint8{
	opClaim:       1 << mClaim,
	opApply:       1<<mAddFrontier | 1<<mSetLeaf,
	opAugStep:     1<<mWalkY | 1<<mMatchReq | 1<<mMateAck,
	opGraftAccept: 1 << mQuery,
	opGraftAdopt:  1 << mAccept,
	opGraftApply:  1<<mAddFrontier | 1<<mSetLeaf,
}

// exec is the one dispatcher for the schedule ops runPhases issues (opSeed
// through opRebuild): it runs op on r, with in as the rank's inbox, and
// returns the op's scalar results — the rank's frontier size after seed,
// apply, graft-apply and rebuild, the walks aug-init started, and the census
// pair (active X, renewable Y). ok is false for an op outside the schedule.
func (o ops) exec(r *rank, op byte, in []message) (info [2]int64, ok bool) {
	switch op {
	case opSeed:
		o.seed(r)
		info[0] = int64(len(r.frontier))
	case opExpand:
		o.expand(r)
	case opClaim:
		o.claim(r, in)
	case opApply:
		o.apply(r, in)
		info[0] = int64(len(r.frontier))
	case opAugInit:
		o.augInit(r)
		info[0] = r.paths
		r.paths = 0
	case opAugStep:
		o.augStep(r, in)
	case opCensus:
		info[0], info[1] = o.census(r)
	case opGraftQuery:
		o.graftQuery(r)
	case opGraftAccept:
		o.graftAccept(r, in)
	case opGraftAdopt:
		o.graftAdopt(r, in)
	case opGraftApply:
		o.graftApply(r, in)
		info[0] = int64(len(r.frontier))
	case opRebuild:
		o.rebuild(r)
		info[0] = int64(len(r.frontier))
	default:
		return info, false
	}
	return info, true
}

// seed roots a fresh singleton tree at every owned unmatched X vertex.
func (o ops) seed(r *rank) {
	r.frontier = r.frontier[:0]
	for x := r.xlo; x < r.xhi; x++ {
		if r.mateX[r.lx(x)] == none {
			r.rootX[r.lx(x)] = x
			r.leaf[r.lx(x)] = none
			r.frontier = append(r.frontier, x)
		}
	}
}

// expand (top-down BFS): offer every neighbor of active frontier vertices to
// its owner as an mClaim.
func (o ops) expand(r *rank) {
	for _, x := range r.frontier {
		if !r.active(x) {
			continue
		}
		root := r.rootX[r.lx(x)]
		for _, y := range o.g.NbrX(x) {
			r.send(o.part.OwnerY(y), message{mClaim, y, x, root})
		}
	}
	r.frontier = r.frontier[:0]
}

// claim: owners resolve first-come claims on their Y vertices, routing
// frontier additions (matched Y) or leaf discoveries (unmatched Y).
func (o ops) claim(r *rank, in []message) {
	for _, msg := range in {
		y, x, root := msg.a, msg.b, msg.c
		if r.visited[r.ly(y)] || r.renewable[root] {
			continue
		}
		r.visited[r.ly(y)] = true
		r.parentY[r.ly(y)] = x
		r.rootY[r.ly(y)] = root
		if mate := r.mateY[r.ly(y)]; mate != none {
			r.send(o.part.OwnerX(mate), message{mAddFrontier, mate, root, 0})
		} else {
			r.send(o.part.OwnerX(root), message{mSetLeaf, root, y, 0})
		}
	}
}

// apply installs frontier additions and leaf discoveries from a claim round.
func (o ops) apply(r *rank, in []message) {
	for _, msg := range in {
		//lint:ignore proto-exhaustive per-phase dispatch: the round before sends only these two kinds, and a worker's checkStep already rejected any kind outside inKinds[op]
		switch msg.kind {
		case mAddFrontier:
			x, root := msg.a, msg.b
			r.rootX[r.lx(x)] = root
			r.frontier = append(r.frontier, x)
		case mSetLeaf:
			root, y := msg.a, msg.b
			if r.leaf[r.lx(root)] == none || r.renewable[root] {
				r.leaf[r.lx(root)] = y
			}
			if !r.renewable[root] {
				r.newRenewable = append(r.newRenewable, root)
			}
		}
	}
}

// augInit starts one augmenting walk per owned renewable root with a
// discovered leaf, counting the initiated paths into r.paths.
func (o ops) augInit(r *rank) {
	for x := r.xlo; x < r.xhi; x++ {
		if r.mateX[r.lx(x)] == none && r.rootX[r.lx(x)] == x && r.renewable[x] && r.leaf[r.lx(x)] != none {
			r.paths++
			y := r.leaf[r.lx(x)]
			o.walk(r, o.part.OwnerY(y), message{mWalkY, y, x, 0})
		}
	}
}

// augStep advances the walks whose tokens reached r in the last round.
func (o ops) augStep(r *rank, in []message) {
	for _, msg := range in {
		o.walk(r, r.id, msg)
	}
}

// walk hands one augmenting-walk token to rank dst. A token for another rank
// is sent; a token for r is applied here, and so is its successor while r
// owns the vertex the walk reaches next, so a walk costs one round per change
// of owner, not one per hop. A Y token asks its parent's owner to rematch; an
// X token flips the mate, acks it to the Y side (in place when r owns the Y)
// and moves on toward the root. Walks are vertex-disjoint, so the order in
// which a rank carries them does not change the mates they leave.
//
// A walk is a simple path, so r carries it through each owned X at most
// once, and every X on it short of the root has a mate, every Y a tree
// parent. Only a forged token (a worker's inbox comes off the wire) breaks
// that; the walk then ends where it breaks, instead of indexing outside the
// rank or circling forever.
func (o ops) walk(r *rank, dst int, msg message) {
	hops := r.xhi - r.xlo
	for dst == r.id {
		switch msg.kind {
		case mWalkY:
			y, root := msg.a, msg.b
			x := r.parentY[r.ly(y)]
			if x == none {
				return
			}
			dst, msg = o.part.OwnerX(x), message{mMatchReq, x, y, root}
		case mMatchReq:
			if hops--; hops < 0 {
				return
			}
			x, y, root := msg.a, msg.b, msg.c
			prev := r.mateX[r.lx(x)]
			r.mateX[r.lx(x)] = y
			if owner := o.part.OwnerY(y); owner == r.id {
				r.mateY[r.ly(y)] = x
			} else {
				r.send(owner, message{mMateAck, y, x, 0})
			}
			if x == root || prev == none {
				return
			}
			dst, msg = o.part.OwnerY(prev), message{mWalkY, prev, root, 0}
		case mMateAck:
			y, x := msg.a, msg.b
			r.mateY[r.ly(y)] = x
			return
		default:
			return // not walk traffic; no round routes another kind here
		}
	}
	r.send(dst, msg)
}

// census classifies r's claimed Y vertices into renewable (dead tree) and
// active lists, resets the renewable ones for reuse, and returns the local
// census the graft decision sums globally: owned X vertices in active trees
// and owned renewable Y vertices.
func (o ops) census(r *rank) (activeX, renewY int64) {
	r.renewY = r.renewY[:0]
	r.activeY = r.activeY[:0]
	for y := r.ylo; y < r.yhi; y++ {
		root := r.rootY[r.ly(y)]
		if root == none {
			continue
		}
		if r.renewable[root] {
			r.renewY = append(r.renewY, y)
		} else {
			r.activeY = append(r.activeY, y)
		}
	}
	for x := r.xlo; x < r.xhi; x++ {
		if r.active(x) {
			activeX++
		}
	}
	for _, y := range r.renewY {
		r.visited[r.ly(y)] = false
		r.rootY[r.ly(y)] = none
		r.parentY[r.ly(y)] = none
	}
	return activeX, int64(len(r.renewY))
}

// graftQuery: freed Y vertices ask the owners of their neighbors whether any
// is in an active tree.
func (o ops) graftQuery(r *rank) {
	for _, y := range r.renewY {
		for _, x := range o.g.NbrY(y) {
			r.send(o.part.OwnerX(x), message{mQuery, x, y, 0})
		}
	}
}

// graftAccept: owners of active X vertices accept queries against them.
func (o ops) graftAccept(r *rank, in []message) {
	for _, msg := range in {
		x, y := msg.a, msg.b
		if r.active(x) {
			r.send(o.part.OwnerY(y), message{mAccept, y, x, r.rootX[r.lx(x)]})
		}
	}
}

// graftAdopt: each freed Y adopts its first acceptance, grafting itself onto
// the accepting tree and routing the follow-on frontier/leaf traffic.
func (o ops) graftAdopt(r *rank, in []message) {
	for _, msg := range in {
		y, x, root := msg.a, msg.b, msg.c
		if r.visited[r.ly(y)] || r.renewable[root] {
			continue // already adopted this round, or tree died
		}
		r.visited[r.ly(y)] = true
		r.parentY[r.ly(y)] = x
		r.rootY[r.ly(y)] = root
		if mate := r.mateY[r.ly(y)]; mate != none {
			r.send(o.part.OwnerX(mate), message{mAddFrontier, mate, root, 0})
		} else {
			r.send(o.part.OwnerX(root), message{mSetLeaf, root, y, 0})
		}
	}
}

// graftApply installs the post-adoption frontier additions and leaf
// discoveries. Unlike apply, an adopted leaf overwrites unconditionally: the
// adopting tree is live and this is its freshest path.
func (o ops) graftApply(r *rank, in []message) {
	for _, msg := range in {
		//lint:ignore proto-exhaustive per-phase dispatch: the round before sends only these two kinds, and a worker's checkStep already rejected any kind outside inKinds[op]
		switch msg.kind {
		case mAddFrontier:
			x, root := msg.a, msg.b
			r.rootX[r.lx(x)] = root
			r.frontier = append(r.frontier, x)
		case mSetLeaf:
			root, y := msg.a, msg.b
			r.leaf[r.lx(root)] = y
			if !r.renewable[root] {
				r.newRenewable = append(r.newRenewable, root)
			}
		}
	}
}

// rebuild destroys r's active trees (renewable ones were reset by census) and
// reseeds from the owned unmatched X vertices.
func (o ops) rebuild(r *rank) {
	for _, y := range r.activeY {
		r.visited[r.ly(y)] = false
		r.rootY[r.ly(y)] = none
		r.parentY[r.ly(y)] = none
	}
	for x := r.xlo; x < r.xhi; x++ {
		r.rootX[r.lx(x)] = none
	}
	o.seed(r)
}

// mergeRenewable applies a round's gathered newly-renewable roots to r's
// replicated bitmap — the collective half of an exchange.
func (o ops) mergeRenewable(r *rank, roots []int32) {
	for _, root := range roots {
		r.renewable[root] = true
	}
}

// takeNewRenewable drains r's newly-renewable roots into dst and clears the
// per-round accumulator.
func takeNewRenewable(r *rank, dst []int32) []int32 {
	dst = append(dst, r.newRenewable...)
	r.newRenewable = r.newRenewable[:0]
	return dst
}
