package analysis

import (
	"go/ast"
	"go/types"
)

// FalseShare is the falseshare check: state indexed by worker id — the
// per-worker counter cells and local frontier buffers at the heart of the
// paper's scaling story (§IV) — must not let two workers' hot words share a
// cache line. Concretely, when a slice or array is indexed by a worker-id
// parameter (w, worker, wid, workerID):
//
//   - a struct element type must have a size that is a multiple of the
//     cache-line size (64 bytes) under 64-bit layout, so element i and
//     element i+1 never split a line;
//   - a bare numeric element written in place (s[w]++, s[w] += d, s[w] = v)
//     is flagged outright: adjacent counters in a []int64 are the canonical
//     false-sharing bug, and belong in a padded per-worker struct.
func FalseShare() Check {
	return Check{
		Name: "falseshare",
		Doc:  "per-worker slots indexed by a worker id must be cache-line padded",
		Run:  runFalseShare,
	}
}

// cacheLineSize is the padding granularity the repo targets (internal/par's
// cacheLine constant).
const cacheLineSize = 64

// workerParamNames are the parameter names treated as worker ids. The
// parallel primitives in internal/par pass the worker id as the first
// callback parameter, named w by convention throughout the repo.
var workerParamNames = map[string]bool{
	"w": true, "worker": true, "wid": true, "workerID": true, "workerId": true,
}

func runFalseShare(prog *Program) []Diagnostic {
	var out []Diagnostic
	flaggedTypes := map[types.Type]bool{}
	prog.eachFunc(func(pkg *Package, node ast.Node, body *ast.BlockStmt) {
		workerParams := workerParamObjs(pkg, node)
		if len(workerParams) == 0 {
			return
		}
		// writes records index expressions that appear as assignment or
		// inc/dec targets, for the bare-numeric rule.
		writes := map[ast.Node]bool{}
		walkShallow(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					writes[ast.Unparen(lhs)] = true
				}
			case *ast.IncDecStmt:
				writes[ast.Unparen(s.X)] = true
			}
			return true
		})
		walkShallow(body, func(n ast.Node) bool {
			idx, ok := n.(*ast.IndexExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(idx.Index).(*ast.Ident)
			if !ok || !workerParams[pkg.Info.Uses[id]] {
				return true
			}
			elem := elemType(pkg, idx.X)
			if elem == nil {
				return true
			}
			switch u := elem.Underlying().(type) {
			case *types.Struct:
				if flaggedTypes[elem] {
					return true
				}
				if sz := prog.Sizes64.Sizeof(elem); sz%cacheLineSize != 0 {
					flaggedTypes[elem] = true
					out = append(out, prog.diag(idx.Pos(), "falseshare",
						"per-worker element type %s has size %d, not a multiple of the %d-byte cache line; adjacent workers' slots share a line — pad the struct tail",
						types.TypeString(elem, types.RelativeTo(pkg.Types)), sz, cacheLineSize))
				}
			case *types.Basic:
				if u.Info()&types.IsNumeric == 0 || !writes[idx] {
					return true
				}
				out = append(out, prog.diag(idx.Pos(), "falseshare",
					"per-worker write to bare %s slot: adjacent workers' counters share a cache line — use a padded per-worker struct (see par.Counter)",
					u.String()))
			}
			return true
		})
	})
	return out
}

// workerParamObjs collects the parameter objects of node whose names mark
// them as worker ids.
func workerParamObjs(pkg *Package, node ast.Node) map[types.Object]bool {
	var ft *ast.FuncType
	switch f := node.(type) {
	case *ast.FuncDecl:
		ft = f.Type
	case *ast.FuncLit:
		ft = f.Type
	}
	if ft == nil || ft.Params == nil {
		return nil
	}
	objs := map[types.Object]bool{}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if workerParamNames[name.Name] {
				if obj := pkg.Info.Defs[name]; obj != nil {
					objs[obj] = true
				}
			}
		}
	}
	return objs
}

// elemType returns the element type when base is a slice, array, or pointer
// to array.
func elemType(pkg *Package, base ast.Expr) types.Type {
	tv, ok := pkg.Info.Types[base]
	if !ok {
		return nil
	}
	switch t := tv.Type.Underlying().(type) {
	case *types.Slice:
		return t.Elem()
	case *types.Array:
		return t.Elem()
	case *types.Pointer:
		if a, isArr := t.Elem().Underlying().(*types.Array); isArr {
			return a.Elem()
		}
	}
	return nil
}
