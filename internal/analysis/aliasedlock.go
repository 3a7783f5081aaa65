package analysis

import (
	"go/ast"
	"go/types"
	"sort"

	"graftmatch/internal/analysis/flow"
)

// AliasedLock is the aliased-lock check: alias double-locks. X.Lock() runs
// while the same underlying mutex is already must-held under a different
// syntactic name (`m := &s.mu; s.mu.Lock(); m.Lock()`). Same-name double
// locks belong to lock-discipline; this rule closes the alias gap using the
// points-to layer. Locking a by-value copy of a mutex-bearing struct is left
// to go vet's copylocks pass, which reports the copy where it is made.
func AliasedLock() Check {
	return Check{
		Name:  "aliased-lock",
		Doc:   "a mutex already held is never locked again through an alias",
		Level: "error",
		Run:   runAliasedLock,
	}
}

func runAliasedLock(prog *Program) []Diagnostic {
	fs := prog.ptInfo()
	var out []Diagnostic
	for _, fn := range fs.valueFuncs() {
		pkg := fs.pkgFor(fn)
		if pkg == nil {
			continue
		}
		out = append(out, aliasDoubleLockDefects(prog, fs, pkg, fn)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos.Offset < out[j].Pos.Offset })
	return out
}

// aliasDoubleLockDefects reports write-mode Lock acquisitions of a mutex
// whose points-to location is already must-held under a different syntactic
// key in the same function.
func aliasDoubleLockDefects(prog *Program, fs *flowState, pkg *Package, fn *flow.Func) []Diagnostic {
	keys, _ := collectLockKeys(pkg, fn.Body)
	if len(keys) < 2 {
		return nil // an alias pair needs two syntactic identities
	}
	idx := map[lockKey]int{}
	for i, k := range keys {
		idx[k] = i
	}
	// Precise points-to identity per syntactic key, from its first receiver
	// occurrence; keys without a unique location are not compared.
	precise := map[lockKey]string{}
	scanOwn(fn.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		m, ok := lockOp(pkg, call)
		if !ok {
			return
		}
		if _, seen := precise[m.lockKey]; seen {
			return
		}
		sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		precise[m.lockKey] = preciseMutexID(fs, pkg, sel.X)
	})
	g := fn.CFG(fs.cg)
	p := flow.Problem{
		Bits:  len(keys),
		Entry: flow.NewBitSet(len(keys)),
		Must:  true,
		Transfer: func(b *flow.Block, in flow.BitSet) flow.BitSet {
			out := in.Copy()
			for _, node := range b.Nodes {
				applyLockOps(pkg, fn.Node, node, idx, out)
			}
			return out
		},
	}
	must := p.Solve(g)

	var out []Diagnostic
	for _, b := range g.Reachable() {
		facts := must.In[b].Copy()
		for _, node := range b.Nodes {
			if _, isDefer := node.(*ast.DeferStmt); !isDefer {
				ast.Inspect(node, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncLit:
						return n == fn.Node
					case *ast.DeferStmt:
						return false
					case *ast.CallExpr:
						m, ok := lockOp(pkg, n)
						if !ok || !m.acquire || !m.write {
							return true
						}
						id := precise[m.lockKey]
						if id == "" {
							return true
						}
						for other, i := range idx {
							if other == m.lockKey || !other.write || !facts.Has(i) {
								continue
							}
							if precise[other] == id {
								out = append(out, prog.diag(n.Pos(), "aliased-lock",
									"%s locks the mutex already held as %s (same location %s): self-deadlock through an alias in %s",
									m.lockKey, other, id, funcLabel(fn.Node)))
							}
						}
					}
					return true
				})
			}
			applyLockOps(pkg, fn.Node, node, idx, facts)
		}
	}
	return out
}

// preciseMutexID resolves a mutex receiver to its unique points-to location
// string, or "" when the substrate cannot pin it to exactly one location.
func preciseMutexID(fs *flowState, pkg *Package, x ast.Expr) string {
	tv, ok := pkg.Info.Types[x]
	if !ok || tv.Type == nil {
		return ""
	}
	if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
		if objs := fs.pts.PointeesOf(pkg.Info, x); len(objs) == 1 {
			return objs[0].String()
		}
		return ""
	}
	if locs := fs.pts.LocsOf(pkg.Info, x); len(locs) == 1 {
		return locs[0].String()
	}
	return ""
}
