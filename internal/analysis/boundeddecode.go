package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"graftmatch/internal/analysis/flow"
)

// BoundedDecode is the bounded-decode check: a `make` whose size or capacity
// operand is tainted by wire-read data (the result of a Recv/read call, or
// the raw []byte handed to a decode function) is an attacker-sized
// allocation unless a comparison over that size dominates the allocation —
// the decoder must latch the count against what the frame actually admits
// before reserving memory for it.
//
// `append` is deliberately exempt: appending decoded elements grows the
// slice by at most the bytes already admitted through the framed reader, so
// the allocation is bounded by the frame size limit even when the element
// count came off the wire. `make` reserves the claimed size up front, before
// any byte of payload backs it, which is the vector this check closes.
func BoundedDecode() Check {
	return Check{
		Name: "bounded-decode",
		Doc:  "wire-tainted make sizes are dominated by a bound comparison",
		Run:  runBoundedDecode,
	}
}

func runBoundedDecode(prog *Program) []Diagnostic {
	fs := prog.flowInfo()
	taint := flow.NewTaint(fs.cg)
	taint.Source = func(info *types.Info, call *ast.CallExpr) bool {
		return isWireSource(fs.cg, info, call)
	}
	taint.SourceParam = isDecodeInput

	var out []Diagnostic
	for _, fn := range fs.cg.Funcs() {
		if !bodyHasMake(fn.Body) {
			continue
		}
		pkg := fs.pkgOf[fn]
		g := fn.CFG(fs.cg)
		du := flow.BuildDefUse(fn, g)
		res := taint.Analyze(fn, g, du)
		dom := flow.BuildDominators(g)

		for _, b := range g.Reachable() {
			in, ok := res.In(b)
			if !ok {
				continue
			}
			facts := in.Copy()
			for i, node := range b.Nodes {
				out = append(out, checkMakesIn(prog, pkg, fn, g, dom, res, b, i, node, facts)...)
				res.Apply(node, facts)
			}
		}
	}
	return out
}

// checkMakesIn scans one CFG node (facts hold the taint state at its entry)
// for make calls with tainted, unguarded size operands. nodeIdx is the
// node's position within b.Nodes, bounding the same-block guard search.
func checkMakesIn(prog *Program, pkg *Package, fn *flow.Func, g *flow.Graph, dom *flow.Dominators, res *flow.TaintResult, b *flow.Block, nodeIdx int, node ast.Node, facts flow.BitSet) []Diagnostic {
	var out []Diagnostic
	stepInspect(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBuiltinMake(pkg.Info, call) {
			return true
		}
		for _, size := range call.Args[1:] {
			if isLenCapCall(pkg.Info, size) {
				// len/cap of held data bounds the allocation by memory the
				// process already admitted, same as the append exemption.
				continue
			}
			if !res.ExprTainted(size, facts) {
				continue
			}
			vars := exprVars(pkg.Info, size)
			if len(vars) == 0 || boundDominates(g, dom, pkg.Info, b, nodeIdx, vars) {
				continue
			}
			out = append(out, prog.diag(call.Pos(), "bounded-decode",
				"make size %s in %s is tainted by wire-read data and no comparison over it dominates the allocation: a hostile frame picks the allocation size",
				types.ExprString(size), funcLabel(fn.Node)))
			break
		}
		return true
	})
	return out
}

// stepInspect walks one CFG node as a single step: nested literals are
// skipped, and compound statements whose inner statements the CFG lowers
// into their own blocks (range bodies, select clauses) are not descended
// into, so each expression is scanned exactly once across the graph.
func stepInspect(node ast.Node, visit func(ast.Node) bool) {
	if rs, ok := node.(*ast.RangeStmt); ok {
		// The block node is the per-iteration bind: only X is evaluated here.
		node = rs.X
	}
	if _, ok := node.(*ast.SelectStmt); ok {
		return // comm statements are the head nodes of the case blocks
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.RangeStmt, *ast.SelectStmt:
			return false
		}
		if n == nil {
			return true
		}
		return visit(n)
	})
}

// isLenCapCall reports whether e is a len or cap builtin call.
func isLenCapCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || (id.Name != "len" && id.Name != "cap") {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// boundDominates reports whether some comparison mentioning one of vars sits
// on every path to the allocation: in a strictly-dominating block, or earlier
// in the allocation's own block (nodes before nodeIdx, plus the guard half of
// the same node — an if condition is its own CFG node, so that case does not
// arise in practice).
func boundDominates(g *flow.Graph, dom *flow.Dominators, info *types.Info, at *flow.Block, nodeIdx int, vars map[*types.Var]bool) bool {
	for _, b := range g.Reachable() {
		if !dom.Dominates(b, at) {
			continue
		}
		limit := len(b.Nodes)
		if b == at {
			limit = nodeIdx
		}
		for _, node := range b.Nodes[:limit] {
			if hasComparisonOver(info, node, vars) {
				return true
			}
		}
	}
	return false
}

// hasComparisonOver reports whether node contains a comparison whose operand
// mentions one of vars. Equality counts: latching a wire count against the
// expected k (`nOut != k`) is exactly the bound the check wants.
func hasComparisonOver(info *types.Info, node ast.Node, vars map[*types.Var]bool) bool {
	found := false
	stepInspect(node, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			for v := range exprVars(info, be.X) {
				if vars[v] {
					found = true
				}
			}
			for v := range exprVars(info, be.Y) {
				if vars[v] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// exprVars collects the local variable objects an expression reads.
func exprVars(info *types.Info, e ast.Expr) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// bodyHasMake is a cheap pre-filter: the check only pays for dataflow in
// functions that allocate at all.
func bodyHasMake(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "make" {
			found = true
		}
		return !found
	})
	return found
}

// isBuiltinMake reports whether call is the make builtin with an explicit
// size operand.
func isBuiltinMake(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) < 2 {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isWireSource classifies the calls whose results (and filled slice
// arguments) carry attacker-controlled bytes: frame receives and framed
// reads. Read/read prefixes match by name alone (os.ReadFile and io.ReadFull
// are as untrusted as a socket read); the bare name Recv is only a source on
// module-local or unresolvable callees, so foreign API methods that happen
// to be called Recv (types.Selection.Recv) do not taint.
func isWireSource(cg *flow.CallGraph, info *types.Info, call *ast.CallExpr) bool {
	var name string
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	default:
		return false
	}
	if strings.HasPrefix(name, "Read") || strings.HasPrefix(name, "read") {
		return true
	}
	if name != "Recv" {
		return false
	}
	obj := flow.CalleeObj(info, call)
	return obj == nil || cg.ByObj(obj) != nil
}

// isDecodeInput marks the []byte parameters of decode functions as tainted
// at entry: the frame body handed to decodeStep and friends IS the wire.
func isDecodeInput(fn *flow.Func, v *types.Var) bool {
	if fn.Obj == nil {
		return false
	}
	name := fn.Obj.Name()
	if !strings.HasPrefix(name, "decode") && !strings.HasPrefix(name, "Decode") {
		return false
	}
	s, ok := v.Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
