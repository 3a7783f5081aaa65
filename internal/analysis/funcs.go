package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"graftmatch/internal/analysis/flow"
)

// flowState is the lazily built whole-program substrate shared by the
// call-graph checks: every declared function as a flow.Func, the
// module-local call graph, and a Func→Package index.
type flowState struct {
	cg    *flow.CallGraph
	pkgOf map[*flow.Func]*Package
}

// flowInfo builds (once) and returns the flow substrate.
func (prog *Program) flowInfo() *flowState {
	if prog.fs != nil {
		return prog.fs
	}
	fs := &flowState{pkgOf: map[*flow.Func]*Package{}}
	var funcs []*flow.Func
	for _, pkg := range prog.Pkgs {
		for _, f := range flow.CollectFuncs(pkg.Types.Name(), pkg.Info, pkg.Files) {
			funcs = append(funcs, f)
			fs.pkgOf[f] = pkg
		}
	}
	fs.cg = flow.NewCallGraph(funcs)
	prog.fs = fs
	return fs
}

// isInternal reports whether obj is declared in this module.
func (prog *Program) isInternal(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == prog.ModPath || strings.HasPrefix(p, prog.ModPath+"/")
}

// funcLabel names a function node for diagnostics.
func funcLabel(node ast.Node) string {
	if fd, ok := node.(*ast.FuncDecl); ok {
		return fd.Name.Name
	}
	return "function literal"
}
