// Package flow is the call graph under graftlint's whole-program checks:
// every declared function of the module as a Func, indexed by its
// *types.Func so a call resolves statically to the body it runs, plus the
// classifier of calls that never return. hotpath-alloc, proto-exhaustive
// and ctx-select are built on it. Like the rest of internal/analysis it is
// stdlib-only.
package flow

import (
	"go/ast"
	"go/types"
)

// Func is one declared function or method with a body, paired with the
// type info of its package.
type Func struct {
	Info *types.Info
	Body *ast.BlockStmt
	Obj  *types.Func
	Name string // qualified diagnostic label: "pkg.func" or "pkg.Recv.Method"
}

// CallGraph resolves module-local calls statically: a call whose callee
// identifier or method selection names a *types.Func whose body is in the
// module resolves to that Func. Calls through function values, interface
// methods, and out-of-module functions resolve to nil. That is exactly the
// soundness boundary documented in DESIGN.md §9: the call graph
// under-approximates (it never invents an edge), so checks built on it must
// treat an unresolved callee conservatively.
type CallGraph struct {
	byObj map[*types.Func]*Func
	funcs []*Func
}

// NewCallGraph indexes funcs by their declared objects.
func NewCallGraph(funcs []*Func) *CallGraph {
	cg := &CallGraph{byObj: map[*types.Func]*Func{}, funcs: funcs}
	for _, f := range funcs {
		if f.Obj != nil {
			cg.byObj[f.Obj] = f
		}
	}
	return cg
}

// Funcs returns every indexed function.
func (cg *CallGraph) Funcs() []*Func { return cg.funcs }

// ByObj returns the module Func declared by obj, or nil.
func (cg *CallGraph) ByObj(obj *types.Func) *Func { return cg.byObj[obj] }

// CalleeObj resolves the called *types.Func of a call expression, module-
// local or not; nil for calls through function values, builtins, and
// conversions.
func CalleeObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// Terminates reports whether a statement-position call never returns:
// the panic builtin, os.Exit, runtime.Goexit, and log.Fatal*.
func (cg *CallGraph) Terminates(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj, ok := info.Uses[id].(*types.Builtin); ok {
			return obj.Name() == "panic"
		}
	}
	obj := CalleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "os":
		return obj.Name() == "Exit"
	case "runtime":
		return obj.Name() == "Goexit"
	case "log":
		switch obj.Name() {
		case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
			return true
		}
	case "testing":
		switch obj.Name() {
		case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
			return true
		}
	}
	return false
}

// CollectFuncs enumerates every function and method with a body in the
// given files (function literals excluded; checks reach those through the
// AST of their enclosing function), labeled pkgName-qualified.
func CollectFuncs(pkgName string, info *types.Info, files []*ast.File) []*Func {
	var out []*Func
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			name := pkgName + "." + fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				name = pkgName + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			out = append(out, &Func{
				Info: info,
				Body: fd.Body,
				Obj:  obj,
				Name: name,
			})
		}
	}
	return out
}

// recvTypeName renders a receiver type expression's base identifier.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}
