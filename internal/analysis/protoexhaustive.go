package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ProtoExhaustive is the proto-exhaustive check: a switch over an integer
// discriminator whose case constants come from one iota const block (an "op
// set", like the cluster protocol's frame types and superstep op codes) must
// either cover every constant of the block or carry a failing default — one
// that cannot fall through to the code after the switch (return, panic, a
// terminating call). A silent default on a protocol dispatch is exactly how
// an unknown or misrouted frame disappears instead of failing the link.
func ProtoExhaustive() Check {
	return Check{
		Name: "proto-exhaustive",
		Doc:  "switches over iota-block discriminators cover every constant or fail on default",
		Run:  runProtoExhaustive,
	}
}

// iotaGroups indexes, per package, every constant declared in a const block
// that uses iota, keyed by constant object.
type iotaGroup struct {
	name    string // the first constant's name, labeling the block
	members []*types.Const
}

func collectIotaGroups(pkg *Package) map[*types.Const]*iotaGroup {
	idx := map[*types.Const]*iotaGroup{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			usesIota := false
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for _, v := range vs.Values {
					ast.Inspect(v, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
							if _, isBuiltin := pkg.Info.Uses[id].(*types.Const); isBuiltin || pkg.Info.Uses[id] == nil {
								usesIota = true
							}
						}
						return true
					})
				}
			}
			if !usesIota {
				continue
			}
			g := &iotaGroup{}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if name.Name == "_" {
						continue
					}
					if c, ok := pkg.Info.Defs[name].(*types.Const); ok {
						if g.name == "" {
							g.name = c.Name()
						}
						g.members = append(g.members, c)
						idx[c] = g
					}
				}
			}
		}
	}
	return idx
}

func runProtoExhaustive(prog *Program) []Diagnostic {
	fs := prog.flowInfo()
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		groups := collectIotaGroups(pkg)
		if len(groups) == 0 {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				out = append(out, checkSwitch(prog, fs, pkg, groups, sw)...)
				return true
			})
		}
	}
	return out
}

// checkSwitch analyzes one tagged switch against the iota-group index.
func checkSwitch(prog *Program, fs *flowState, pkg *Package, groups map[*types.Const]*iotaGroup, sw *ast.SwitchStmt) []Diagnostic {
	if tv, ok := pkg.Info.Types[sw.Tag]; !ok || tv.Type == nil || !isIntegerType(tv.Type) {
		return nil
	}
	var group *iotaGroup
	covered := map[*types.Const]bool{}
	var defaultClause *ast.CaseClause
	for _, c := range sw.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, e := range cc.List {
			c := constOf(pkg.Info, e)
			if c == nil {
				return nil // non-constant case: not an op dispatch
			}
			g, ok := groups[c]
			if !ok {
				return nil // constant outside any iota block
			}
			if group == nil {
				group = g
			} else if group != g {
				return nil // cases from two blocks: not a single op set
			}
			covered[c] = true
		}
	}
	if group == nil {
		return nil
	}
	var missing []string
	for _, m := range group.members {
		if !covered[m] {
			missing = append(missing, m.Name())
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	if defaultClause != nil && clauseTerminates(fs, pkg, defaultClause.Body) {
		return nil
	}
	shown := missing
	if len(shown) > 4 {
		shown = append(append([]string{}, shown[:4]...), "...")
	}
	what := "has no default"
	if defaultClause != nil {
		what = "its default can fall through"
	}
	return []Diagnostic{prog.diag(sw.Pos(), "proto-exhaustive",
		"switch covers %d of %d constants in the %s iota block (missing %s) and %s: unknown values pass silently",
		len(covered), len(group.members), group.name, strings.Join(shown, ", "), what)}
}

// constOf resolves a case expression to the constant object it names.
func constOf(info *types.Info, e ast.Expr) *types.Const {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		c, _ := info.Uses[e].(*types.Const)
		return c
	case *ast.SelectorExpr:
		c, _ := info.Uses[e.Sel].(*types.Const)
		return c
	}
	return nil
}

// isIntegerType reports whether t's underlying type is an integer (byte and
// named op types included).
func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// clauseTerminates reports whether a statement list cannot fall off its end:
// every path returns, panics, makes a terminating call, or branches away
// from the switch. Under-approximates (an unrecognized shape counts as
// falling through), which is the conservative direction for the check.
func clauseTerminates(fs *flowState, pkg *Package, stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	last := stmts[len(stmts)-1]
	switch s := last.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		// goto leaves the clause; continue re-enters an enclosing loop
		// rather than falling into post-switch code. break falls through to
		// the join, which is the silent path.
		return s.Tok == token.GOTO || s.Tok == token.CONTINUE
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			return fs.cg.Terminates(pkg.Info, call)
		}
	case *ast.BlockStmt:
		return clauseTerminates(fs, pkg, s.List)
	case *ast.IfStmt:
		if s.Else == nil {
			return false
		}
		thenOK := clauseTerminates(fs, pkg, s.Body.List)
		var elseOK bool
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			elseOK = clauseTerminates(fs, pkg, e.List)
		case *ast.IfStmt:
			elseOK = clauseTerminates(fs, pkg, []ast.Stmt{e})
		}
		return thenOK && elseOK
	case *ast.ForStmt:
		// for {} with no condition and no break never falls through.
		if s.Cond == nil && !hasBreak(s.Body) {
			return true
		}
	}
	return false
}

// hasBreak reports whether body contains an unlabeled break binding to the
// enclosing loop (nested loops, switches, and selects capture their own).
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				found = true
			}
		}
		return true
	}
	for _, s := range body.List {
		ast.Inspect(s, walk)
	}
	return found
}
