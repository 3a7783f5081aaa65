package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"graftmatch/internal/analysis/flow"
)

// flowState is the lazily built whole-program substrate shared by the
// flow-sensitive checks: every declared function as a flow.Func, the
// module-local call graph, a Func→Package index, and the memoized
// transitive blocking property over the call graph.
type flowState struct {
	cg       *flow.CallGraph
	pkgOf    map[*flow.Func]*Package
	blocking map[*types.Func]bool // memo: module function blocks (transitively)
}

// flowInfo builds (once) and returns the flow substrate.
func (prog *Program) flowInfo() *flowState {
	if prog.fs != nil {
		return prog.fs
	}
	fs := &flowState{
		pkgOf:    map[*flow.Func]*Package{},
		blocking: map[*types.Func]bool{},
	}
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

// namedType returns the named type behind t after stripping one pointer,
// or nil.
func namedType(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n == nil {
		if p, ok := t.(*types.Pointer); ok {
			n, _ = p.Elem().(*types.Named)
		}
	}
	return n
}

// isSyncType reports whether t (or *t) is sync.<name>.
func isSyncType(t types.Type, name string) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// recvOfSyncCall matches a call of the form X.<method>() where X's type is
// sync.<typeName> (possibly through a pointer), returning X.
func recvOfSyncCall(pkg *Package, call *ast.CallExpr, typeName string, methods ...string) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	found := false
	for _, m := range methods {
		if sel.Sel.Name == m {
			found = true
			break
		}
	}
	if !found {
		return nil
	}
	tv, ok := pkg.Info.Types[sel.X]
	if !ok || !isSyncType(tv.Type, typeName) {
		return nil
	}
	return sel.X
}

// exprKey canonicalizes an ident/selector chain ("lg.mu", "w.s.mu") for use
// as a lock or wait-group identity. Expressions with calls, indexing, or
// other shapes return "" — those identities are not trackable and the
// checks skip them.
func exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.UnaryExpr:
		return exprKey(e.X) // &x aliases x
	case *ast.StarExpr:
		return exprKey(e.X) // *p aliases p for our purposes
	}
	return ""
}

// stdlibBlocking classifies an out-of-module callee as a blocking
// operation: synchronization waits, sleeps, and I/O. The list is the
// deny-list the lock-discipline check reasons with; it under-approximates
// (unlisted stdlib calls pass), which keeps the check quiet rather than
// noisy.
func stdlibBlocking(obj *types.Func) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	name := obj.Name()
	switch pkg.Path() {
	case "sync":
		if name == "Wait" { // (*WaitGroup).Wait, (*Cond).Wait
			return "sync." + recvName(obj) + ".Wait"
		}
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "os":
		switch name {
		case "ReadFile", "WriteFile", "Open", "OpenFile", "Create", "ReadDir",
			"Remove", "RemoveAll", "Rename", "Mkdir", "MkdirAll":
			return "os." + name
		case "Read", "Write", "Sync", "Close", "ReadAt", "WriteAt", "Seek":
			if recvName(obj) == "File" {
				return "(*os.File)." + name
			}
		}
	case "io":
		switch name {
		case "Copy", "CopyN", "ReadAll", "ReadFull":
			return "io." + name
		}
	case "net", "net/http":
		return pkg.Path() + "." + name // any networking call blocks
	case "bufio":
		switch name {
		case "Flush", "ReadString", "ReadBytes", "ReadLine", "Read", "Write", "WriteString":
			return "bufio." + name
		}
	}
	return ""
}

// recvName returns the receiver type name of a method object ("WaitGroup"
// for (*sync.WaitGroup).Wait), or "".
func recvName(obj *types.Func) string {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	n := namedType(sig.Recv().Type())
	if n == nil {
		return ""
	}
	return n.Obj().Name()
}

// blockingCall classifies call as a blocking operation, directly (a
// blocking stdlib callee) or transitively (a module-local callee whose body
// blocks). Returns a human-readable description or "".
func (fs *flowState) blockingCall(pkg *Package, call *ast.CallExpr, depth int) string {
	obj := flow.CalleeObj(pkg.Info, call)
	if obj == nil {
		return ""
	}
	if desc := stdlibBlocking(obj); desc != "" {
		return desc
	}
	if depth <= 0 {
		return ""
	}
	callee := fs.cg.ByObj(obj)
	if callee == nil {
		return ""
	}
	if blocked, ok := fs.blocking[obj]; ok {
		if blocked {
			return obj.Name() + " (blocks transitively)"
		}
		return ""
	}
	fs.blocking[obj] = false // cycle guard: assume non-blocking while visiting
	desc := ""
	cpkg := fs.pkgOf[callee]
	ast.Inspect(callee.Body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a literal defined here runs elsewhere
		case *ast.SendStmt:
			desc = "channel send"
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				desc = "channel receive"
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				desc = "select"
			}
		case *ast.CallExpr:
			if d := fs.blockingCall(cpkg, n, depth-1); d != "" {
				desc = d
			}
		}
		return true
	})
	if desc != "" {
		fs.blocking[obj] = true
		return obj.Name() + " (calls " + desc + ")"
	}
	return ""
}

// selectHasDefault reports whether a select statement has a default clause
// (making it non-blocking).
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
