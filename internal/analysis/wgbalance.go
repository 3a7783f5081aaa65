package analysis

import (
	"go/ast"
	"go/constant"
)

// WGBalance is the wg-balance check for sync.WaitGroup misuse, per function:
//
//   - Rule A (racy Add): X.Add called inside a goroutine body while the
//     same function calls X.Wait. Wait may run before the goroutine's Add,
//     observing a zero counter and returning early — the classic
//     add-inside-goroutine race the race detector only catches when the
//     schedule cooperates.
//
//   - Rule B (constant mismatch): when every X.Add in the function has a
//     constant positive argument, none sits inside a loop or goroutine,
//     and X never escapes (no call receives it, no non-go function literal
//     captures it), the total added must equal the number of completions:
//     direct X.Done calls plus `go` statements whose body calls X.Done.
//     A go statement inside a loop makes the count unknowable and bails.
//
// WaitGroup identity is the syntactic receiver chain (exprKey), same as
// lock-discipline.
func WGBalance() Check {
	return Check{
		Name: "wg-balance",
		Doc:  "WaitGroup Add/Done counts match and Add never races Wait",
		Run:  runWGBalance,
	}
}

func runWGBalance(prog *Program) []Diagnostic {
	var out []Diagnostic
	prog.eachFunc(func(pkg *Package, node ast.Node, body *ast.BlockStmt) {
		out = append(out, wgCheckFunc(prog, pkg, node, body)...)
	})
	return out
}

// wgUse accumulates everything one function does with one WaitGroup key.
type wgUse struct {
	addConst     int64 // sum of constant Add arguments outside loops/goroutines
	addCalls     int   // total Add call count
	addNonConst  bool  // some Add argument is not a constant
	addInLoop    bool  // some Add sits inside a loop
	addInGo      []ast.Node
	doneDirect   int  // Done calls outside go statements
	doneGoStmts  int  // go statements whose body calls Done
	goInLoop     bool // a Done-completing go statement sits inside a loop
	waits        []ast.Node
	escapes      bool // passed to a call or captured by a non-go literal
	firstAddNode ast.Node
}

func wgCheckFunc(prog *Program, pkg *Package, fnNode ast.Node, body *ast.BlockStmt) []Diagnostic {
	uses := map[string]*wgUse{}
	use := func(key string) *wgUse {
		u := uses[key]
		if u == nil {
			u = &wgUse{}
			uses[key] = u
		}
		return u
	}

	// Pass 1: classify every WaitGroup operation with its enclosing-loop and
	// enclosing-go context, walking only this function's own statements.
	var walk func(n ast.Node, inLoop, inGo bool, goRoot ast.Node)
	walk = func(n ast.Node, inLoop, inGo bool, goRoot ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.ForStmt:
			walkEach(n.Init, n.Cond, inLoop, inGo, goRoot, walk)
			walk(n.Body, true, inGo, goRoot)
			walkEach(n.Post, nil, true, inGo, goRoot, walk)
			return
		case *ast.RangeStmt:
			walkEach(n.X, nil, inLoop, inGo, goRoot, walk)
			walk(n.Body, true, inGo, goRoot)
			return
		case *ast.GoStmt:
			// The spawned body (literal or named callee's args) runs
			// concurrently. Only literals are attributed; a named callee
			// receiving the wg counts as escape in pass 2.
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				walk(lit.Body, false, true, n)
			}
			for _, a := range n.Call.Args {
				walk(a, inLoop, inGo, goRoot)
			}
			return
		case *ast.FuncLit:
			return // non-go nested literal: handled by eachFunc on its own; capture = escape (pass 2)
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if tv, ok := pkg.Info.Types[sel.X]; ok && isSyncType(tv.Type, "WaitGroup") {
					if key := exprKey(sel.X); key != "" {
						u := use(key)
						switch sel.Sel.Name {
						case "Add":
							u.addCalls++
							if u.firstAddNode == nil {
								u.firstAddNode = n
							}
							if inGo {
								u.addInGo = append(u.addInGo, goRoot)
							}
							if inLoop {
								u.addInLoop = true
							}
							v := constInt(pkg, n.Args)
							if v == nil {
								u.addNonConst = true
							} else if !inLoop && !inGo {
								u.addConst += *v
							}
						case "Done":
							if inGo {
								// counted per-go in pass 3
							} else {
								u.doneDirect++
							}
						case "Wait":
							u.waits = append(u.waits, n)
						}
					}
				}
			}
		}
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n || c == nil {
				return true
			}
			walk(c, inLoop, inGo, goRoot)
			return false
		})
	}
	walk(body, false, false, nil)

	// Pass 3 (interleaved above is awkward for go-literal Done counting, so
	// do it directly): count go statements whose literal body calls Done on
	// each key, and whether any such go sits in a loop.
	countGoDones(pkg, body, uses)

	// Pass 2: escape analysis — a WaitGroup passed as a call argument (incl.
	// `go namedFunc(&wg)`) or captured by a non-go function literal leaves
	// this function's accounting.
	markEscapes(pkg, body, uses)

	var out []Diagnostic
	for key, u := range uses {
		// Rule A: Add inside a goroutine racing a Wait in the same function.
		if len(u.addInGo) > 0 && len(u.waits) > 0 {
			out = append(out, prog.diag(u.addInGo[0].Pos(), "wg-balance",
				"%s.Add runs inside a goroutine while %s also calls %s.Wait: Wait can observe the counter before Add runs; call Add before the go statement", key, funcLabel(fnNode), key))
		}
		// Rule B: constant accounting.
		if u.addCalls == 0 || u.addNonConst || u.addInLoop || len(u.addInGo) > 0 ||
			u.escapes || u.goInLoop {
			continue
		}
		completions := int64(u.doneDirect + u.doneGoStmts)
		if u.addConst != completions {
			out = append(out, prog.diag(u.firstAddNode.Pos(), "wg-balance",
				"%s.Add totals %d but %s completes it %d time(s): Wait will %s", key, u.addConst, funcLabel(fnNode), completions, mismatchEffect(u.addConst, completions)))
		}
	}
	return out
}

func mismatchEffect(added, completed int64) string {
	if added > completed {
		return "block forever"
	}
	return "panic on negative counter"
}

// walkEach walks up to two child nodes with the given context.
func walkEach(a, b ast.Node, inLoop, inGo bool, goRoot ast.Node, walk func(ast.Node, bool, bool, ast.Node)) {
	if a != nil {
		walk(a, inLoop, inGo, goRoot)
	}
	if b != nil {
		walk(b, inLoop, inGo, goRoot)
	}
}

// constInt evaluates the first argument as a constant int64, or nil.
func constInt(pkg *Package, args []ast.Expr) *int64 {
	if len(args) != 1 {
		return nil
	}
	tv, ok := pkg.Info.Types[args[0]]
	if !ok || tv.Value == nil {
		return nil
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	if !exact {
		return nil
	}
	return &v
}

// countGoDones walks the function's own statements counting `go func(){...}`
// spawns whose body calls X.Done, per key.
func countGoDones(pkg *Package, body *ast.BlockStmt, uses map[string]*wgUse) {
	var inLoop func(n ast.Node, loop bool)
	inLoop = func(n ast.Node, loop bool) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.ForStmt:
				inLoop(c.Body, true)
				return false
			case *ast.RangeStmt:
				inLoop(c.Body, true)
				return false
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(c.Call.Fun).(*ast.FuncLit); ok {
					for _, key := range doneKeysIn(pkg, lit.Body) {
						if u, ok := uses[key]; ok {
							u.doneGoStmts++
							if loop {
								u.goInLoop = true
							}
						}
					}
				}
				return false
			case *ast.FuncLit:
				return false // skip non-go literals
			}
			return true
		})
	}
	inLoop(body, false)
}

// doneKeysIn returns the WaitGroup keys on which a block calls Done.
func doneKeysIn(pkg *Package, body *ast.BlockStmt) []string {
	seen := map[string]bool{}
	var keys []string
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		tv, ok := pkg.Info.Types[sel.X]
		if !ok || !isSyncType(tv.Type, "WaitGroup") {
			return true
		}
		if key := exprKey(sel.X); key != "" && !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
		return true
	})
	return keys
}

// markEscapes flags keys whose WaitGroup is passed to a call or referenced
// inside a non-go function literal.
func markEscapes(pkg *Package, body *ast.BlockStmt, uses map[string]*wgUse) {
	keyOfExpr := func(e ast.Expr) string {
		tv, ok := pkg.Info.Types[e]
		if !ok || !isSyncType(tv.Type, "WaitGroup") {
			return ""
		}
		return exprKey(e)
	}
	var visit func(n ast.Node, inGoLit bool)
	visit = func(n ast.Node, inGoLit bool) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(c.Call.Fun).(*ast.FuncLit); ok {
					visit(lit.Body, true)
					for _, a := range c.Call.Args {
						visit(a, inGoLit)
					}
					return false
				}
				// go namedFunc(...): arguments escape below via CallExpr.
			case *ast.FuncLit:
				if !inGoLit {
					// Capture by an arbitrary literal: escapes.
					for _, key := range wgKeysReferenced(pkg, c.Body) {
						if u, ok := uses[key]; ok {
							u.escapes = true
						}
					}
				}
				return false
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
					if keyOfExpr(sel.X) != "" {
						switch sel.Sel.Name {
						case "Add", "Done", "Wait":
							return true // the tracked ops themselves
						}
					}
				}
				for _, a := range c.Args {
					if key := keyOfExpr(a); key != "" {
						if u, ok := uses[key]; ok {
							u.escapes = true
						}
					}
					if un, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && un.Op.String() == "&" {
						if key := keyOfExpr(un.X); key != "" {
							if u, ok := uses[key]; ok {
								u.escapes = true
							}
						}
					}
				}
			}
			return true
		})
	}
	visit(body, false)
}

// wgKeysReferenced returns keys of WaitGroup-typed expressions referenced in
// a block.
func wgKeysReferenced(pkg *Package, body ast.Node) []string {
	seen := map[string]bool{}
	var keys []string
	ast.Inspect(body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		tv, ok := pkg.Info.Types[e]
		if !ok || !isSyncType(tv.Type, "WaitGroup") {
			return true
		}
		if key := exprKey(e); key != "" && !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
		return true
	})
	return keys
}
