package analysis

import (
	"go/ast"
	"sort"

	"graftmatch/internal/analysis/flow"
)

// LockDiscipline is the lock-discipline check: a forward dataflow analysis
// over each function's CFG tracking which sync.Mutex/sync.RWMutex receivers
// are held at each program point. It solves the problem twice — once with
// may-merge (union: held on SOME path) and once with must-merge
// (intersection: held on EVERY path) — and reports four defect classes:
//
//   - blocking under lock: a channel send/receive, default-less select, or
//     (transitively) blocking call executes while a mutex MAY be held;
//   - double lock: X.Lock() (or RLock) runs while X MUST already be held
//     in the same mode — self-deadlock on sync.Mutex;
//   - lock leak: a return or fall-off-end exit where a mutex MUST be held
//     and no defer unlocks it;
//   - branch imbalance: a merge point where MAY-held and MUST-held differ —
//     one predecessor holds the lock, another does not.
//
// Lock identity is the syntactic receiver chain (exprKey): "mu", "e.mu",
// "w.s.mu". Receivers with calls or indexing in them are not tracked.
func LockDiscipline() Check {
	return Check{
		Name: "lock-discipline",
		Doc:  "mutexes are released on every path and never held across blocking operations",
		Run:  runLockDiscipline,
	}
}

// lockKey is one tracked mutex in one mode.
type lockKey struct {
	key   string // exprKey of the receiver
	write bool   // Lock/Unlock (write) vs RLock/RUnlock (read)
}

func (k lockKey) String() string {
	if k.write {
		return k.key
	}
	return k.key + " (read)"
}

func runLockDiscipline(prog *Program) []Diagnostic {
	fs := prog.flowInfo()
	var out []Diagnostic
	for _, fn := range fs.cg.Funcs() {
		pkg := fs.pkgOf[fn]
		out = append(out, lockCheckFunc(prog, fs, pkg, fn)...)
		// Function literals get their own independent analysis: a lock
		// taken in the enclosing function is invisible inside the literal
		// (it runs on an unknown schedule), and vice versa.
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				lf := &flow.Func{Info: pkg.Info, Node: lit, Body: lit.Body, Name: funcLabel(lit)}
				out = append(out, lockCheckFunc(prog, fs, pkg, lf)...)
			}
			return true
		})
	}
	return out
}

// lockCheckFunc runs the per-function lock analysis.
func lockCheckFunc(prog *Program, fs *flowState, pkg *Package, fn *flow.Func) []Diagnostic {
	keys, deferred := collectLockKeys(pkg, fn.Body)
	if len(keys) == 0 {
		return nil
	}
	idx := map[lockKey]int{}
	for i, k := range keys {
		idx[k] = i
	}
	g := fn.CFG(fs.cg)
	transfer := func(b *flow.Block, in flow.BitSet) flow.BitSet {
		out := in.Copy()
		for _, node := range b.Nodes {
			applyLockOps(pkg, fn.Node, node, idx, out)
		}
		return out
	}
	mayP := flow.Problem{Bits: len(keys), Entry: flow.NewBitSet(len(keys)), Transfer: transfer}
	may := mayP.Solve(g)
	mustP := flow.Problem{Bits: len(keys), Entry: flow.NewBitSet(len(keys)), Must: true, Transfer: transfer}
	must := mustP.Solve(g)

	var out []Diagnostic
	imbalanced := map[lockKey]bool{}
	for _, b := range g.Reachable() {
		// Branch imbalance at merge points. The synthetic Exit block is
		// excluded: divergence there is the lock-leak case, reported with
		// a precise position below.
		if len(b.Preds) >= 2 && b != g.Exit {
			for k, i := range idx {
				if may.In[b].Has(i) && !must.In[b].Has(i) && !imbalanced[k] {
					imbalanced[k] = true
					pos := b.Pos()
					if !pos.IsValid() {
						pos = fn.Body.Pos()
					}
					out = append(out, prog.diag(pos, "lock-discipline",
						"%s is held on some paths into this merge point but not all: lock/unlock is branch-imbalanced in %s", k, funcLabel(fn.Node)))
				}
			}
		}
		// Statement-level defects, threading facts through the block.
		mayNow := may.In[b].Copy()
		mustNow := must.In[b].Copy()
		for i, node := range b.Nodes {
			// A select comm statement only executes once the select picked
			// it as ready — the blocking point is the SelectStmt itself,
			// already scanned in the predecessor block.
			if !(b.Kind == "select.case" && i == 0) {
				out = append(out, lockStmtDefects(prog, fs, pkg, fn, node, idx, mayNow, mustNow)...)
			}
			applyLockOps(pkg, fn.Node, node, idx, mayNow)
			applyLockOps(pkg, fn.Node, node, idx, mustNow)
		}
		// Lock leak at exits.
		for _, s := range b.Succs {
			if s != g.Exit {
				continue
			}
			for k, i := range idx {
				if mustNow.Has(i) && !deferred[k] {
					pos := b.Pos()
					if !pos.IsValid() {
						pos = fn.Body.Pos()
					}
					out = append(out, prog.diag(pos, "lock-discipline",
						"%s is still held when %s returns and no defer releases it", k, funcLabel(fn.Node)))
				}
			}
			break
		}
	}
	return out
}

// collectLockKeys scans a body for tracked mutex operations, returning the
// sorted key universe and the set of keys released by a defer statement.
// Nested function literals are skipped when scanning a FuncDecl body (they
// are analyzed separately), and the literal itself is scanned when fn.Node
// is that literal.
func collectLockKeys(pkg *Package, body *ast.BlockStmt) ([]lockKey, map[lockKey]bool) {
	set := map[lockKey]bool{}
	deferred := map[lockKey]bool{}
	scanOwn(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if k, ok := lockOp(pkg, n); ok {
				set[k.lockKey] = true
			}
		case *ast.DeferStmt:
			if k, ok := lockOp(pkg, n.Call); ok && !k.acquire {
				set[k.lockKey] = true
				deferred[k.lockKey] = true
			}
		}
	})
	keys := make([]lockKey, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].key != keys[j].key {
			return keys[i].key < keys[j].key
		}
		return keys[i].write && !keys[j].write
	})
	return keys, deferred
}

// scanOwn walks body without descending into nested function literals.
func scanOwn(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// lockMutation is one Lock/Unlock/RLock/RUnlock call.
type lockMutation struct {
	lockKey
	acquire bool
}

// lockOp classifies a call as a tracked mutex operation.
func lockOp(pkg *Package, call *ast.CallExpr) (lockMutation, bool) {
	for _, tn := range [2]string{"Mutex", "RWMutex"} {
		if x := recvOfSyncCall(pkg, call, tn, "Lock", "Unlock", "RLock", "RUnlock"); x != nil {
			key := exprKey(x)
			if key == "" {
				return lockMutation{}, false
			}
			sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			switch sel.Sel.Name {
			case "Lock":
				return lockMutation{lockKey{key, true}, true}, true
			case "Unlock":
				return lockMutation{lockKey{key, true}, false}, true
			case "RLock":
				return lockMutation{lockKey{key, false}, true}, true
			case "RUnlock":
				return lockMutation{lockKey{key, false}, false}, true
			}
		}
	}
	return lockMutation{}, false
}

// applyLockOps mutates facts with the gen/kill effect of one CFG node.
// Deferred unlocks have no flow effect (they run at function exit); nested
// literals are opaque.
func applyLockOps(pkg *Package, fnNode ast.Node, root ast.Node, idx map[lockKey]int, facts flow.BitSet) {
	if _, isDefer := root.(*ast.DeferStmt); isDefer {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == fnNode
		case *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if m, ok := lockOp(pkg, n); ok {
				if i, tracked := idx[m.lockKey]; tracked {
					if m.acquire {
						facts.Set(i)
					} else {
						facts.Clear(i)
					}
				}
			}
		}
		return true
	})
}

// lockStmtDefects reports blocking-under-lock and double-lock for one
// statement given the facts flowing into it.
func lockStmtDefects(prog *Program, fs *flowState, pkg *Package, fn *flow.Func, root ast.Node, idx map[lockKey]int, may, must flow.BitSet) []Diagnostic {
	var out []Diagnostic
	heldMay := func() []lockKey {
		var ks []lockKey
		for k, i := range idx {
			if may.Has(i) {
				ks = append(ks, k)
			}
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i].String() < ks[j].String() })
		return ks
	}
	report := func(pos ast.Node, what string) {
		ks := heldMay()
		if len(ks) == 0 {
			return
		}
		out = append(out, prog.diag(pos.Pos(), "lock-discipline",
			"%s while %s may be held in %s", what, ks[0], funcLabel(fn.Node)))
	}
	if _, isDefer := root.(*ast.DeferStmt); isDefer {
		return nil
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == fn.Node
		case *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			report(n, "channel send")
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				report(n, "channel receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				report(n, "blocking select")
			}
			return false // cases run after the select picks; facts unchanged
		case *ast.CallExpr:
			if m, ok := lockOp(pkg, n); ok && m.acquire {
				if i, tracked := idx[m.lockKey]; tracked && must.Has(i) {
					out = append(out, prog.diag(n.Pos(), "lock-discipline",
						"%s is locked while already held on every path: self-deadlock in %s", m.lockKey, funcLabel(fn.Node)))
				}
				return true
			}
			if desc := fs.blockingCall(pkg, n, 3); desc != "" {
				report(n, "blocking call to "+desc)
			}
		}
		return true
	})
	return out
}
