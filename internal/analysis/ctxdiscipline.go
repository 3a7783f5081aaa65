package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxDiscipline is the ctx-discipline check for the resilient execution
// layer: the engines must stay cancellable end to end, or a deadline on the
// facade silently stops propagating into a phase and partial-result
// semantics rot. Three rules:
//
//   - A *Ctx function (exported, name ending in "Ctx") must accept a
//     context.Context as its first parameter and return an error: the suffix
//     is this repo's contract for "cancellable entry point".
//
//   - In the engine packages (Config.CtxPackages), an exported Run* entry
//     point must either take a context itself or have a sibling *Ctx
//     variant, so no engine is runnable only in uncancellable form.
//
//   - The error of a context-taking call must not be discarded (used as a
//     bare statement, go, or defer): that error is how cancellation
//     propagates. Assigning to _ is allowed as an explicit, visible waiver.
func CtxDiscipline() Check {
	return Check{
		Name: "ctx-discipline",
		Doc:  "entry points propagate context.Context and never swallow its error",
		Run:  runCtxDiscipline,
	}
}

func runCtxDiscipline(prog *Program) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		exported := map[string]bool{}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
					exported[fd.Name.Name] = true
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				name := fd.Name.Name
				sig := funcSignature(pkg, fd)
				if sig == nil {
					continue
				}
				if strings.HasSuffix(name, "Ctx") {
					if !firstParamIsContext(sig) {
						out = append(out, prog.diag(fd.Name.Pos(), "ctx-discipline",
							"%s is named as a context-aware entry point but its first parameter is not context.Context", name))
					}
					if !resultsIncludeError(sig) {
						out = append(out, prog.diag(fd.Name.Pos(), "ctx-discipline",
							"%s takes a context but returns no error; cancellation would be unobservable", name))
					}
					continue
				}
				if fd.Recv == nil && strings.HasPrefix(name, "Run") &&
					inSuffixList(pkg.Path, prog.Config.CtxPackages) &&
					!signatureTakesContext(sig) && !exported[name+"Ctx"] {
					out = append(out, prog.diag(fd.Name.Pos(), "ctx-discipline",
						"exported entry point %s in %s has no context parameter and no %sCtx sibling; the engine cannot be cancelled",
						name, pkg.Path, name))
				}
			}
		}
	}
	prog.eachFunc(func(pkg *Package, node ast.Node, body *ast.BlockStmt) {
		walkShallow(body, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = ast.Unparen(s.X).(*ast.CallExpr)
			case *ast.GoStmt:
				call = s.Call
			case *ast.DeferStmt:
				call = s.Call
			}
			if call == nil {
				return true
			}
			sig := callSignature(pkg, call)
			if sig == nil || !signatureTakesContext(sig) || !resultsIncludeError(sig) {
				return true
			}
			out = append(out, prog.diag(call.Pos(), "ctx-discipline",
				"error result of context-taking call discarded; cancellation cannot propagate (assign it, or _ = it with a reason)"))
			return true
		})
	})
	return out
}

// funcSignature returns the declared signature of fd.
func funcSignature(pkg *Package, fd *ast.FuncDecl) *types.Signature {
	obj := pkg.Info.Defs[fd.Name]
	if obj == nil {
		return nil
	}
	sig, _ := obj.Type().(*types.Signature)
	return sig
}

// callSignature returns the signature of the called function, or nil for
// conversions and builtins.
func callSignature(pkg *Package, call *ast.CallExpr) *types.Signature {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func firstParamIsContext(sig *types.Signature) bool {
	return sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}

func signatureTakesContext(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// resultsIncludeError reports whether any result of sig is error.
func resultsIncludeError(sig *types.Signature) bool {
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), types.Universe.Lookup("error").Type()) {
			return true
		}
	}
	return false
}
