package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"graftmatch/internal/analysis/flow"
)

// GlobalMutable is the global-mutable check: package-level mutable state in
// the concurrent packages (CtxPackages) written from a goroutine-bearing
// context without synchronization. Reads never trigger; a write — direct
// assignment, element or field store, increment — fires when the writing
// function runs outside the single main context, no mutex is must-held, and
// the store is not an atomic operation. Writes in init functions are exempt:
// initialization happens-before main.
func GlobalMutable() Check {
	return Check{
		Name:  "global-mutable",
		Doc:   "package-level mutable state is only written with synchronization once goroutines exist",
		Level: "warning",
		Run:   runGlobalMutable,
	}
}

func runGlobalMutable(prog *Program) []Diagnostic {
	fs := prog.ptInfo()
	watched := map[*types.Var]bool{}
	for _, pkg := range prog.Pkgs {
		if !inSuffixList(pkg.Path, prog.Config.CtxPackages) {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						v, _ := pkg.Info.Defs[name].(*types.Var)
						if v == nil || v.Name() == "_" || untrackedType(v.Type()) {
							continue
						}
						watched[v] = true
					}
				}
			}
		}
	}
	if len(watched) == 0 {
		return nil
	}

	var out []Diagnostic
	reported := map[*types.Var]map[*flow.Func]bool{}
	for _, fn := range fs.valueFuncs() {
		pkg := fs.pkgFor(fn)
		if pkg == nil || isInitFunc(fn.Node) {
			continue
		}
		if !sharedWriterCtxs(fs, fn) {
			continue
		}
		walkWithLocks(fs, pkg, fn, func(node ast.Node, held map[string]bool) {
			if len(held) > 0 {
				return // any must-held mutex counts as the guard
			}
			for _, wr := range globalWritesIn(pkg.Info, node, fn.Node, watched) {
				if reported[wr.v] == nil {
					reported[wr.v] = map[*flow.Func]bool{}
				}
				if reported[wr.v][fn] {
					continue
				}
				reported[wr.v][fn] = true
				out = append(out, prog.diag(wr.pos, "global-mutable",
					"package-level %s is written in %s, which runs in goroutine context %s, with no lock held: guard it, make it atomic, or hang it off an instance",
					wr.v.Name(), fn.Name, writerCtxLabel(fs, fn)))
			}
		})
	}
	return out
}

// sharedWriterCtxs reports whether fn's body can run outside the one main
// goroutine: any non-main context, or a multi-instance main.
func sharedWriterCtxs(fs *flowState, fn *flow.Func) bool {
	for id := range fs.escape.Contexts(fn) {
		if id != flow.MainCtx || fs.escape.Site(id).Multi {
			return true
		}
	}
	return false
}

// writerCtxLabel names one non-main context fn runs in, for the message.
func writerCtxLabel(fs *flowState, fn *flow.Func) string {
	for _, id := range fs.escape.Contexts(fn).IDs() {
		if id != flow.MainCtx {
			return fs.escape.Site(id).Label
		}
	}
	return "main (multi-instance)"
}

// chainRootVar resolves the base variable of an ident/selector chain
// ("c.mu" → c); nil for chains through calls or indexing.
func chainRootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// globalWrite is one store whose target chain roots at a watched global.
type globalWrite struct {
	v   *types.Var
	pos token.Pos
}

// globalWritesIn finds assignment/inc-dec targets inside one CFG node whose
// base variable is watched. fnNode bounds literal descent as elsewhere.
func globalWritesIn(info *types.Info, root ast.Node, fnNode ast.Node, watched map[*types.Var]bool) []globalWrite {
	var out []globalWrite
	target := func(e ast.Expr) {
		v := chainRootVar(info, e)
		if v != nil && watched[v] {
			out = append(out, globalWrite{v: v, pos: e.Pos()})
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == fnNode
		case *ast.RangeStmt:
			// The node form carries the whole statement; only the
			// per-iteration binds are this node's effect.
			if n.Key != nil {
				target(n.Key)
			}
			if n.Value != nil {
				target(n.Value)
			}
			return false
		case *ast.SelectStmt:
			return false // lowered into case blocks
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				target(l)
			}
		case *ast.IncDecStmt:
			target(n.X)
		}
		return true
	})
	return out
}
