package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"graftmatch/internal/analysis/flow"
)

// CtxSelect is the ctx-select check: inside goroutines spawned from the
// engine packages (Config.CtxPackages), a blocking channel operation must
// sit in a select that can observe cancellation — one with a done-channel
// receive case (any `chan struct{}` source: ctx.Done(), a close channel) or
// a default arm. A bare send, bare receive, channel range, or done-less
// select is a goroutine that outlives its context: cancellation fires, the
// caller moves on, and the goroutine stays parked on a channel nobody
// will touch again.
//
// Receiving directly from a done-like channel is exempt (that IS waiting
// for cancellation), and the scan follows `go f()` into module-local
// callees two levels deep, so handlers dispatched by name are held to the
// same rule as inline literals.
func CtxSelect() Check {
	return Check{
		Name: "ctx-select",
		Doc:  "channel ops in engine goroutines select on a done channel",
		Run:  runCtxSelect,
	}
}

func runCtxSelect(prog *Program) []Diagnostic {
	s := &ctxSelectScan{
		prog: prog,
		fs:   prog.flowInfo(),
		seen: map[token.Pos]bool{},
	}
	for _, pkg := range prog.Pkgs {
		if !inSuffixList(pkg.Path, prog.Config.CtxPackages) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if gs, ok := n.(*ast.GoStmt); ok {
						s.spawn(pkg, fd, gs)
					}
					return true
				})
			}
		}
	}
	return s.out
}

// goFollowDepth is how many static call hops the scan follows from the go
// statement into module-local callees.
const goFollowDepth = 2

type ctxSelectScan struct {
	prog *Program
	fs   *flowState
	seen map[token.Pos]bool // offending ops already reported (shared spawn paths)
	out  []Diagnostic
}

// spawn analyzes one go statement found in an engine package.
func (s *ctxSelectScan) spawn(pkg *Package, encl *ast.FuncDecl, gs *ast.GoStmt) {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		label := "goroutine in " + funcLabel(encl)
		s.scanBody(pkg.Info, lit.Body, label, goFollowDepth, map[*flow.Func]bool{})
		return
	}
	obj := flow.CalleeObj(pkg.Info, gs.Call)
	if obj == nil {
		return
	}
	fn := s.fs.cg.ByObj(obj)
	if fn == nil {
		return
	}
	s.scanBody(fn.Info, fn.Body, "goroutine "+fn.Name, goFollowDepth, map[*flow.Func]bool{fn: true})
}

// scanBody walks one body (nested literals and nested goroutines excluded —
// each spawn is judged on its own) reporting channel ops that can block past
// cancellation, and follows static module-local calls depth levels further.
func (s *ctxSelectScan) scanBody(info *types.Info, body *ast.BlockStmt, label string, depth int, visited map[*flow.Func]bool) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			if !selectObservesDone(info, n) {
				s.report(n.Pos(), "select in %s has neither a default nor a done-channel case: it blocks past cancellation", label)
			}
			// The comm clauses themselves are covered by the select; their
			// bodies are scanned for further bare ops.
			for _, c := range n.Body.List {
				for _, st := range c.(*ast.CommClause).Body {
					ast.Inspect(st, walk)
				}
			}
			return false
		case *ast.SendStmt:
			s.report(n.Pos(), "%s sends on %s outside a select: cancellation cannot interrupt the send", label, types.ExprString(n.Chan))
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !doneLike(info, n.X) {
				s.report(n.Pos(), "%s receives from %s outside a select with a done channel", label, types.ExprString(n.X))
			}
		case *ast.RangeStmt:
			if isChannelExpr(info, n.X) && !doneLike(info, n.X) {
				s.report(n.Pos(), "%s ranges over channel %s with no cancellation path", label, types.ExprString(n.X))
			}
		case *ast.CallExpr:
			if depth > 0 {
				if obj := flow.CalleeObj(info, n); obj != nil {
					if fn := s.fs.cg.ByObj(obj); fn != nil && !visited[fn] {
						visited[fn] = true
						s.scanBody(fn.Info, fn.Body, label+" via "+fn.Name, depth-1, visited)
					}
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

func (s *ctxSelectScan) report(pos token.Pos, format string, a ...any) {
	if s.seen[pos] {
		return
	}
	s.seen[pos] = true
	s.out = append(s.out, s.prog.diag(pos, "ctx-select", format, a...))
}

// selectObservesDone reports whether a select can always make progress under
// cancellation: it has a default arm, or some case receives from a done-like
// channel.
func selectObservesDone(info *types.Info, sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			return true
		}
		if ch := commRecvChan(cc.Comm); ch != nil && doneLike(info, ch) {
			return true
		}
	}
	return false
}

// commRecvChan extracts the channel of a receive comm clause (`<-ch`,
// `v := <-ch`, `v, ok = <-ch`); nil for sends.
func commRecvChan(comm ast.Stmt) ast.Expr {
	var e ast.Expr
	switch st := comm.(type) {
	case *ast.ExprStmt:
		e = st.X
	case *ast.AssignStmt:
		if len(st.Rhs) == 1 {
			e = st.Rhs[0]
		}
	}
	if ue, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
		return ue.X
	}
	return nil
}

// doneLike reports whether e's static type is a struct{}-element channel —
// the shape of every cancellation signal in the module (ctx.Done(), close
// channels, a pump's exit signal).
func doneLike(info *types.Info, e ast.Expr) bool {
	ch := chanType(info, e)
	if ch == nil {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// isChannelExpr reports whether e's static type is a channel.
func isChannelExpr(info *types.Info, e ast.Expr) bool {
	return chanType(info, e) != nil
}

func chanType(info *types.Info, e ast.Expr) *types.Chan {
	if e == nil {
		return nil
	}
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	ch, _ := tv.Type.Underlying().(*types.Chan)
	return ch
}
