package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"graftmatch/internal/analysis/flow"
)

// HotPathAlloc is the hotpath-alloc check: per-iteration heap allocations
// inside the code the matching kernels execute per element. Two region
// families are hot:
//
//   - the body of every function literal handed to an internal/par entry
//     point (parEntryNames) — extended by a fixpoint over module-local "hot
//     wrappers": a function whose func-typed parameter is forwarded into a
//     hot call, or invoked inside a literal given to one, is itself a hot
//     entry (this discovers the repo's pfor/pforDyn-style wrappers
//     automatically);
//   - every for/range loop body in a Config.HotPackages package (the
//     BFS/superstep drivers).
//
// Inside a maximal hot region the check flags operations that allocate per
// iteration: slice and map composite literals, &T{...} pointer literals,
// make and new, closures that capture local state, append onto a slice
// declared inside the region, and arguments boxed into interface
// parameters. Plain struct value literals and anything under a terminating
// call (panic, log.Fatal) are not flagged.
func HotPathAlloc() Check {
	return Check{
		Name: "hotpath-alloc",
		Doc:  "no per-iteration heap allocation inside parallel bodies and hot-package loops",
		Run:  runHotPathAlloc,
	}
}

// parEntryNames are the internal/par entry points whose func arguments run
// per block on a region's workers: For and ForDynamic, and the region
// methods (*Pool).ForCtx and (*Pool).ForDynamicCtx.
var parEntryNames = map[string]bool{
	"For": true, "ForCtx": true, "ForDynamic": true, "ForDynamicCtx": true,
}

func isParEntry(obj *types.Func) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return inSuffixList(obj.Pkg().Path(), []string{"internal/par"}) && parEntryNames[obj.Name()]
}

// hotRegion is one maximal hot span to scan for allocations.
type hotRegion struct {
	pkg  *Package
	body *ast.BlockStmt
	kind string // "parallel body" or "hot loop"
}

func runHotPathAlloc(prog *Program) []Diagnostic {
	fs := prog.flowInfo()

	// Index every declared function's parameter objects to (func, index).
	type paramSlot struct {
		obj *types.Func
		idx int
	}
	paramOf := map[*types.Var]paramSlot{}
	for _, fn := range fs.cg.Funcs() {
		if fn.Obj == nil {
			continue
		}
		sig := fn.Obj.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			paramOf[sig.Params().At(i)] = paramSlot{fn.Obj, i}
		}
	}

	// Fixpoint: discover hot wrapper parameters and hot literals.
	hotParam := map[*types.Func]map[int]bool{} // func -> hot param indices
	hotLits := map[*ast.FuncLit]*Package{}
	hotArgPositions := func(pkg *Package, call *ast.CallExpr) []int {
		obj := flow.CalleeObj(pkg.Info, call)
		if obj == nil {
			return nil
		}
		if isParEntry(obj) {
			var idxs []int
			for i, a := range call.Args {
				if tv, ok := pkg.Info.Types[a]; ok {
					if _, isFn := tv.Type.Underlying().(*types.Signature); isFn {
						idxs = append(idxs, i)
					}
				}
			}
			return idxs
		}
		if hp := hotParam[obj]; len(hp) > 0 {
			var idxs []int
			for i := range hp {
				idxs = append(idxs, i)
			}
			return idxs
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		markParam := func(slot paramSlot) {
			if hotParam[slot.obj] == nil {
				hotParam[slot.obj] = map[int]bool{}
			}
			if !hotParam[slot.obj][slot.idx] {
				hotParam[slot.obj][slot.idx] = true
				changed = true
			}
		}
		for _, fn := range fs.cg.Funcs() {
			pkg := fs.pkgOf[fn]
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, i := range hotArgPositions(pkg, call) {
					if i >= len(call.Args) {
						continue
					}
					switch a := ast.Unparen(call.Args[i]).(type) {
					case *ast.FuncLit:
						if _, seen := hotLits[a]; !seen {
							hotLits[a] = pkg
							changed = true
						}
					case *ast.Ident:
						if v, ok := pkg.Info.Uses[a].(*types.Var); ok {
							if slot, isParam := paramOf[v]; isParam {
								markParam(slot)
							}
						}
					}
				}
				return true
			})
		}
		// A func param invoked inside a hot literal is a hot param too
		// (a per-item wrapper: the par body calls f(...)).
		for lit, pkg := range hotLits {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
						if slot, isParam := paramOf[v]; isParam {
							markParam(slot)
						}
					}
				}
				return true
			})
		}
	}

	// Collect regions: hot literal bodies plus every loop body in a hot
	// package, then keep only the maximal (outermost) ones.
	var regions []hotRegion
	for lit, pkg := range hotLits {
		regions = append(regions, hotRegion{pkg, lit.Body, "parallel body"})
	}
	for _, pkg := range prog.Pkgs {
		if !inSuffixList(pkg.Path, prog.Config.HotPackages) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ForStmt:
					regions = append(regions, hotRegion{pkg, n.Body, "hot loop"})
				case *ast.RangeStmt:
					regions = append(regions, hotRegion{pkg, n.Body, "hot loop"})
				}
				return true
			})
		}
	}
	maximal := regions[:0]
	for _, r := range regions {
		contained := false
		for _, o := range regions {
			if o.body != r.body && r.body.Pos() >= o.body.Pos() && r.body.End() <= o.body.End() {
				contained = true
				break
			}
		}
		if !contained {
			maximal = append(maximal, r)
		}
	}

	var out []Diagnostic
	for _, r := range maximal {
		out = append(out, scanHotRegion(prog, fs, r)...)
	}
	return dedupDiags(out)
}

// dedupDiags removes exact duplicate diagnostics (same position, check,
// message) that overlapping regions can produce.
func dedupDiags(in []Diagnostic) []Diagnostic {
	type k struct {
		file       string
		line, col  int
		check, msg string
	}
	seen := map[k]bool{}
	var out []Diagnostic
	for _, d := range in {
		kk := k{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message}
		if seen[kk] {
			continue
		}
		seen[kk] = true
		out = append(out, d)
	}
	return out
}

// scanHotRegion flags per-iteration allocations inside one region.
func scanHotRegion(prog *Program, fs *flowState, r hotRegion) []Diagnostic {
	pkg := r.pkg
	var out []Diagnostic
	flag := func(pos token.Pos, format string, args ...any) {
		args = append(args, r.kind)
		out = append(out, prog.diag(pos, "hotpath-alloc", format+" in %s; hoist it out or reuse per-worker scratch", args...))
	}
	ast.Inspect(r.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if cg := fs.cg; cg.Terminates(pkg.Info, n) {
				return false // panic/fatal path: not per-iteration cost
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make":
						flag(n.Pos(), "make allocates per iteration")
					case "new":
						flag(n.Pos(), "new allocates per iteration")
					case "append":
						if dst, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
							if v, ok := pkg.Info.Uses[dst].(*types.Var); ok &&
								v.Pos() >= r.body.Pos() && v.Pos() < r.body.End() {
								flag(n.Pos(), "append grows %q, which is declared inside the region, so every iteration reallocates", dst.Name)
							}
						}
					}
					return true
				}
			}
			out = append(out, boxedArgs(prog, pkg, n, r.kind)...)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					flag(n.Pos(), "&T{...} allocates per iteration")
					return false
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pkg.Info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					flag(n.Pos(), "slice literal allocates per iteration")
				case *types.Map:
					flag(n.Pos(), "map literal allocates per iteration")
				}
			}
		case *ast.FuncLit:
			if n.Body == r.body {
				return true // the region's own literal
			}
			if capturesLocals(pkg, n) {
				flag(n.Pos(), "closure captures local state and allocates per iteration")
			}
		}
		return true
	})
	return out
}

// capturesLocals reports whether a function literal references a variable
// declared outside the literal that is not package-level — the condition
// under which the closure (and its captured variables) escape to the heap.
func capturesLocals(pkg *Package, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == pkg.Types.Scope() {
			return true // package-level: no capture
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // the literal's own params/locals
		}
		captured = true
		return false
	})
	return captured
}

// boxedArgs flags non-constant, non-pointer-shaped arguments passed to
// interface parameters: each such call boxes the value on the heap.
func boxedArgs(prog *Program, pkg *Package, call *ast.CallExpr, kind string) []Diagnostic {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil // conversion or builtin
	}
	if call.Ellipsis.IsValid() {
		return nil // fn(xs...): the slice is passed as-is
	}
	var out []Diagnostic
	params := sig.Params()
	for i, a := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		} else {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		atv, ok := pkg.Info.Types[a]
		if !ok || atv.Value != nil || atv.IsNil() {
			continue // constant or nil: no per-call allocation
		}
		switch atv.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue // already an interface, or pointer-shaped: fits the data word
		}
		out = append(out, prog.diag(a.Pos(), "hotpath-alloc",
			"argument is boxed into an interface parameter on every iteration in %s; hoist it out or reuse per-worker scratch", kind))
	}
	return out
}
