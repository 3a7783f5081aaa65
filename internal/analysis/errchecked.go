package analysis

import (
	"go/ast"
	"go/types"
)

// ErrChecked is the err-checked check, the hygiene wall around the other
// four: findings are only trustworthy if failures surface. Two rules:
//
//   - The error result of a module-internal call must not be silently
//     dropped by using the call as a bare statement, go statement, or defer.
//     Assigning to _ is allowed as an explicit, reviewable waiver; stdlib
//     and third-party callees are left to go vet and code review.
//
//   - panic is reserved for the containment layer (Config.PanicPackages —
//     internal/par, whose gate converts worker panics into *PanicError).
//     Everywhere else a panic would tear down the process from a worker
//     goroutine instead of flowing through the resilient-execution error
//     path; return an error, or annotate the assertion with its safety
//     argument.
func ErrChecked() Check {
	return Check{
		Name: "err-checked",
		Doc:  "internal errors are never silently dropped; panic stays in the containment layer",
		Run:  runErrChecked,
	}
}

func runErrChecked(prog *Program) []Diagnostic {
	var out []Diagnostic
	prog.eachFunc(func(pkg *Package, node ast.Node, body *ast.BlockStmt) {
		walkShallow(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
					out = append(out, prog.checkDiscard(pkg, call, "")...)
				}
			case *ast.GoStmt:
				out = append(out, prog.checkDiscard(pkg, s.Call, "go ")...)
			case *ast.DeferStmt:
				out = append(out, prog.checkDiscard(pkg, s.Call, "defer ")...)
			case *ast.CallExpr:
				if id, ok := s.Fun.(*ast.Ident); ok && isBuiltinPanic(pkg, id) &&
					!inSuffixList(pkg.Path, prog.Config.PanicPackages) {
					out = append(out, prog.diag(s.Pos(), "err-checked",
						"panic outside the containment layer (%s): worker panics must flow through internal/par's gate as errors, not crash the process",
						pkg.Path))
				}
			}
			return true
		})
	})
	return out
}

// checkDiscard flags stmt-position calls to module-internal functions whose
// results include an error.
func (prog *Program) checkDiscard(pkg *Package, call *ast.CallExpr, how string) []Diagnostic {
	sig := callSignature(pkg, call)
	if sig == nil || !resultsIncludeError(sig) {
		return nil
	}
	callee := calleeObject(pkg, call)
	if callee == nil || !prog.isInternal(callee) {
		return nil
	}
	return []Diagnostic{prog.diag(call.Pos(), "err-checked",
		"%serror result of internal call %s discarded; handle it or assign to _ with a reason", how, callee.Name())}
}

// calleeObject resolves the called function to its declaring object.
func calleeObject(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[fun.Sel]
	}
	return nil
}

// isBuiltinPanic reports whether id names the predeclared panic builtin.
func isBuiltinPanic(pkg *Package, id *ast.Ident) bool {
	if id.Name != "panic" {
		return false
	}
	obj := pkg.Info.Uses[id]
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin
}
