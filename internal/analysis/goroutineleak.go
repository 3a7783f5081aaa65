package analysis

import (
	"go/ast"
	"go/types"

	"graftmatch/internal/analysis/flow"
)

// GoroutineLeak is the goroutine-leak check: every `go` statement must
// spawn a body that some join point can observe finishing — otherwise the
// goroutine is fire-and-forget and, under the engine's phase structure, a
// silent leak that accumulates across phases. A body counts as observable
// when any CFG-reachable statement (in the body or, transitively, in a
// statically resolved module callee):
//
//   - sends on or closes a channel, or receives/selects/ranges on one
//     (cancellation observation and join signalling both look like this —
//     ctx.Done() is a channel receive);
//   - calls Done or Add on a sync.WaitGroup;
//   - calls context.Context.Err or .Deadline (polling cancellation);
//   - calls an unresolvable function passing a context, channel, or
//     *sync.WaitGroup (or invokes a method on one) — the callee may
//     observe on the goroutine's behalf, so the check stays conservative.
//
// Statements that are unreachable in the CFG (dead code after return)
// do not count: "has a path that observes" is the contract.
func GoroutineLeak() Check {
	return Check{
		Name: "goroutine-leak",
		Doc:  "every spawned goroutine signals a join point or observes cancellation",
		Run:  runGoroutineLeak,
	}
}

func runGoroutineLeak(prog *Program) []Diagnostic {
	fs := prog.flowInfo()
	var out []Diagnostic
	prog.eachFunc(func(pkg *Package, node ast.Node, body *ast.BlockStmt) {
		walkShallow(body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			target := fs.cg.Callee(pkg.Info, gs.Call)
			if target == nil {
				// Spawning through a function value or out-of-module callee:
				// not statically resolvable. If the call hands over a
				// context/channel/WaitGroup, assume the callee observes it;
				// otherwise report — a bare opaque spawn is unobservable by
				// construction.
				if callPassesObservable(pkg, gs.Call) {
					return true
				}
				out = append(out, prog.diag(gs.Pos(), "goroutine-leak",
					"goroutine body is not statically resolvable and receives no context, channel, or WaitGroup; no join point can observe it finishing"))
				return true
			}
			seen := map[*flow.Func]bool{}
			if !fs.observesJoin(pkg, target, 4, seen) {
				out = append(out, prog.diag(gs.Pos(), "goroutine-leak",
					"goroutine %s never signals a join point: no channel send/close/receive, no WaitGroup.Done, no ctx observation on any path", targetName(target)))
			}
			return true
		})
	})
	return out
}

func targetName(f *flow.Func) string {
	if f.Obj != nil {
		return f.Name
	}
	return "body"
}

// observesJoin reports whether fn contains a CFG-reachable join-observable
// operation, following module-local static callees to the given depth.
func (fs *flowState) observesJoin(pkg *Package, fn *flow.Func, depth int, seen map[*flow.Func]bool) bool {
	if seen[fn] {
		return false
	}
	seen[fn] = true
	if p := fs.pkgOf[fn]; p != nil {
		pkg = p
	}
	g := fn.CFG(fs.cg)
	for _, b := range g.Reachable() {
		for _, node := range b.Nodes {
			if fs.nodeObserves(pkg, node, fn, depth, seen) {
				return true
			}
		}
	}
	return false
}

// nodeObserves scans one CFG node (statement) for an observable operation.
func (fs *flowState) nodeObserves(pkg *Package, root ast.Node, fn *flow.Func, depth int, seen map[*flow.Func]bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != fn.Node {
				return false // nested literal: runs on its own schedule
			}
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if fs.callObserves(pkg, n, depth, seen) {
				found = true
			}
		}
		return !found
	})
	return found
}

// callObserves classifies one call as join-observable.
func (fs *flowState) callObserves(pkg *Package, call *ast.CallExpr, depth int, seen map[*flow.Func]bool) bool {
	// close(ch)
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			return b.Name() == "close"
		}
	}
	// WaitGroup.Done/Add/Wait and ctx.Err/Done/Deadline.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := pkg.Info.Types[sel.X]; ok {
			if isSyncType(tv.Type, "WaitGroup") {
				switch sel.Sel.Name {
				case "Done", "Add", "Wait":
					return true
				}
			}
			if isContextType(tv.Type) {
				switch sel.Sel.Name {
				case "Err", "Done", "Deadline", "Value":
					return true
				}
			}
		}
	}
	obj := flow.CalleeObj(pkg.Info, call)
	if obj != nil {
		if callee := fs.cg.ByObj(obj); callee != nil {
			if depth > 0 && fs.observesJoin(pkg, callee, depth-1, seen) {
				return true
			}
			return false
		}
	}
	// Unresolvable (function value, interface method, stdlib): conservative
	// if it is handed something observable.
	return callPassesObservable(pkg, call)
}

// callPassesObservable reports whether a call's receiver or arguments carry
// a context, channel, or *sync.WaitGroup — evidence the callee can observe
// a join on the goroutine's behalf.
func callPassesObservable(pkg *Package, call *ast.CallExpr) bool {
	exprs := make([]ast.Expr, 0, len(call.Args)+1)
	exprs = append(exprs, call.Args...)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		exprs = append(exprs, sel.X)
	}
	for _, a := range exprs {
		tv, ok := pkg.Info.Types[a]
		if !ok {
			continue
		}
		t := tv.Type
		if isContextType(t) || isSyncType(t, "WaitGroup") {
			return true
		}
		if _, isChan := t.Underlying().(*types.Chan); isChan {
			return true
		}
		if p, ok := t.Underlying().(*types.Pointer); ok {
			if _, isChan := p.Elem().Underlying().(*types.Chan); isChan {
				return true
			}
		}
	}
	return false
}
