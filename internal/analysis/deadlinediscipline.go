package analysis

import (
	"go/ast"
	"sort"

	"graftmatch/internal/analysis/flow"
)

// DeadlineDiscipline is the deadline-discipline check: a function that both
// arms a connection deadline (SetReadDeadline/SetWriteDeadline/SetDeadline
// with a non-zero time) and disarms one (the same call with time.Time{})
// manages that deadline's lifecycle — and then every CFG path out of the
// function, error exits included, must leave the deadline disarmed or the
// connection closed. Arming on one path and forgetting the disarm on
// another is how a handshake deadline survives past the handshake and fires
// mid-run.
//
// Functions that only arm are the per-frame I/O pattern (each call re-arms
// before its read or write, a later stage disarms) and are not flagged;
// functions that only disarm are the stage-transition helpers. A deferred
// disarm covers every exit.
func DeadlineDiscipline() Check {
	return Check{
		Name: "deadline-discipline",
		Doc:  "functions managing conn deadlines disarm them on every exit path",
		Run:  runDeadlineDiscipline,
	}
}

// deadlineKey is one tracked deadline: the receiver chain and the side.
type deadlineKey struct {
	key  string // exprKey of the conn expression
	mode string // "read" or "write"
}

func (k deadlineKey) String() string { return k.key + " (" + k.mode + ")" }

// deadlineOp is one classified call: arm or disarm of one or both sides,
// or a close of the conn.
type deadlineOp struct {
	keys  []deadlineKey
	arm   bool
	close bool
}

func runDeadlineDiscipline(prog *Program) []Diagnostic {
	fs := prog.flowInfo()
	var out []Diagnostic
	for _, fn := range fs.cg.Funcs() {
		pkg := fs.pkgOf[fn]
		out = append(out, deadlineCheckFunc(prog, fs, pkg, fn)...)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				lf := &flow.Func{Info: pkg.Info, Node: lit, Body: lit.Body, Name: funcLabel(lit)}
				out = append(out, deadlineCheckFunc(prog, fs, pkg, lf)...)
			}
			return true
		})
	}
	return out
}

func deadlineCheckFunc(prog *Program, fs *flowState, pkg *Package, fn *flow.Func) []Diagnostic {
	arms := map[deadlineKey]bool{}
	disarms := map[deadlineKey]bool{}
	deferred := map[deadlineKey]bool{}
	scanOwn(fn.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if op := deadlineOpOf(pkg, n); op != nil && !op.close {
				for _, k := range op.keys {
					if op.arm {
						arms[k] = true
					} else {
						disarms[k] = true
					}
				}
			}
		case *ast.DeferStmt:
			if op := deadlineOpOf(pkg, n.Call); op != nil && !op.arm && !op.close {
				for _, k := range op.keys {
					disarms[k] = true
					deferred[k] = true
				}
			}
		}
	})
	// Only keys whose full lifecycle (arm AND disarm) is managed here are
	// checked; see the check doc for why arm-only functions pass.
	var keys []deadlineKey
	for k := range arms {
		if disarms[k] && !deferred[k] {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	idx := map[deadlineKey]int{}
	for i, k := range keys {
		idx[k] = i
	}

	g := fn.CFG(fs.cg)
	transfer := func(b *flow.Block, in flow.BitSet) flow.BitSet {
		out := in.Copy()
		for _, node := range b.Nodes {
			applyDeadlineOps(pkg, fn.Node, node, idx, out)
		}
		return out
	}
	// May-analysis: armed on SOME path into the exit is already the defect —
	// the contract is "disarmed on every path out".
	p := flow.Problem{Bits: len(keys), Entry: flow.NewBitSet(len(keys)), Transfer: transfer}
	may := p.Solve(g)

	var out []Diagnostic
	reported := map[deadlineKey]bool{}
	for _, b := range g.Reachable() {
		exits := false
		for _, s := range b.Succs {
			if s == g.Exit {
				exits = true
			}
		}
		if !exits {
			continue
		}
		in, ok := may.In[b]
		if !ok {
			continue
		}
		facts := in.Copy()
		for _, node := range b.Nodes {
			applyDeadlineOps(pkg, fn.Node, node, idx, facts)
		}
		for _, k := range keys {
			if facts.Has(idx[k]) && !reported[k] {
				reported[k] = true
				pos := b.Pos()
				if !pos.IsValid() {
					pos = fn.Body.Pos()
				}
				out = append(out, prog.diag(pos, "deadline-discipline",
					"%s deadline of %s is disarmed on some paths of %s but still armed when this exit is reached",
					k.mode, k.key, funcLabel(fn.Node)))
			}
		}
	}
	return out
}

// applyDeadlineOps mutates facts with the arm/disarm/close effect of one
// CFG node. Deferred calls run at exit, not here.
func applyDeadlineOps(pkg *Package, fnNode ast.Node, root ast.Node, idx map[deadlineKey]int, facts flow.BitSet) {
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
			op := deadlineOpOf(pkg, n)
			if op == nil {
				return true
			}
			for _, k := range op.keys {
				if i, ok := idx[k]; ok {
					if op.arm {
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

// deadlineOpOf classifies a call as a deadline arm/disarm or a conn close.
// The receiver's identity is its exprKey; a Close on the same chain clears
// both sides (a closed socket's deadlines are moot).
func deadlineOpOf(pkg *Package, call *ast.CallExpr) *deadlineOp {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	key := exprKey(sel.X)
	if key == "" {
		return nil
	}
	switch sel.Sel.Name {
	case "SetReadDeadline", "SetWriteDeadline", "SetDeadline":
		if len(call.Args) != 1 {
			return nil
		}
		var keys []deadlineKey
		switch sel.Sel.Name {
		case "SetReadDeadline":
			keys = []deadlineKey{{key, "read"}}
		case "SetWriteDeadline":
			keys = []deadlineKey{{key, "write"}}
		default:
			keys = []deadlineKey{{key, "read"}, {key, "write"}}
		}
		return &deadlineOp{keys: keys, arm: !isZeroTime(pkg, call.Args[0])}
	case "Close":
		if len(call.Args) != 0 {
			return nil
		}
		return &deadlineOp{
			keys:  []deadlineKey{{key, "read"}, {key, "write"}},
			close: true,
		}
	}
	return nil
}

// isZeroTime recognizes the disarm argument time.Time{} (parenthesized or
// via a conversion-free composite literal).
func isZeroTime(pkg *Package, e ast.Expr) bool {
	cl, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok || len(cl.Elts) != 0 {
		return false
	}
	tv, ok := pkg.Info.Types[cl]
	if !ok || tv.Type == nil {
		return false
	}
	n := namedType(tv.Type)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Time" && obj.Pkg() != nil && obj.Pkg().Path() == "time"
}
