package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// taintOf runs the taint analysis over one function and returns whether the
// named local is tainted at the end of the entry-reachable straight line.
func runTaint(t *testing.T, src, funcName string, source func(name string) bool) (*TaintResult, *Graph) {
	t.Helper()
	funcs, _ := load(t, src)
	f := fn(t, funcs, funcName)
	cg := NewCallGraph(funcs)
	ta := NewTaint(cg)
	ta.Source = func(info *types.Info, call *ast.CallExpr) bool {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			return source(id.Name)
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return source(sel.Sel.Name)
		}
		return false
	}
	g := f.CFG(cg)
	du := BuildDefUse(f, g)
	return ta.Analyze(f, g, du), g
}

func TestTaintFormsAndSummaries(t *testing.T) {
	src := `package p
type Pkt struct{ b []byte }
func src() []byte { return nil }
func fill(b []byte) {}
func pass(b []byte) []byte { return b }
func clean() int { return 0 }
func rec(n int, b []byte) []byte {
	if n == 0 {
		return b
	}
	return rec(n-1, b)
}
func named() (out []byte) {
	out = src()
	return
}
func f() {
	var a = src()
	m, n := twin()
	var buf []byte
	fill(buf)
	p := Pkt{b: a}
	q := p.b
	r := pass(a)
	s := a[1:]
	u := *(&n)
	w := len(a)
	x := []byte(nil)
	x = append(x, a...)
	y := clean()
	z := rec(3, a)
	nb := named()
	var arr [4][]byte
	for _, e := range arr {
		_ = e
	}
	_, _, _, _, _, _, _, _, _, _, _ = m, q, r, s, u, w, x, y, z, nb, buf
}
func twin() ([]byte, []byte) { return src(), nil }`
	res, g := runTaint(t, src, "f", func(name string) bool { return name == "src" || name == "fill" })

	// Thread facts through the function body by hand, NewFacts-style.
	facts := res.NewFacts()
	for _, b := range g.Reachable() {
		if in, ok := res.In(b); ok && b == g.Entry {
			facts = in.Copy()
		}
	}
	var body *ast.BlockStmt
	body = res.Fn.Body
	for _, stmt := range body.List {
		res.Apply(stmt, facts)
	}
	tainted := func(name string) bool {
		var v *ast.Ident
		ast.Inspect(body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name && v == nil {
				v = id
			}
			return true
		})
		if v == nil {
			t.Fatalf("ident %s not found", name)
		}
		vr := objVar(res.Fn.Info, v)
		if vr == nil {
			t.Fatalf("ident %s has no var", name)
		}
		return res.VarTainted(vr, facts)
	}
	for _, want := range []struct {
		name string
		want bool
	}{
		{"a", true},   // direct source
		{"m", true},   // tuple via summary (inherent)
		{"buf", true}, // filled slice arg of a source
		{"q", true},   // field read off tainted composite
		{"r", true},   // flow-through summary (fromParam)
		{"s", true},   // reslice of tainted
		{"w", true},   // builtin over tainted operand
		{"x", true},   // append spread of tainted
		{"y", false},  // clean callee summary
		{"z", true},   // recursive callee: conservative any-arg rule
		{"nb", true},  // named-result bare return summary
	} {
		if got := tainted(want.name); got != want.want {
			t.Errorf("%s: tainted=%v, want %v", want.name, got, want.want)
		}
	}
}

func TestTaintUntaintAndWeakUpdates(t *testing.T) {
	src := `package p
func src() []byte { return nil }
func f() {
	a := src()
	a = nil
	_ = a
	b := src()
	var pk struct{ d []byte }
	pk.d = b
	c := map[string][]byte{}
	c["k"] = b
	var i interface{} = b
	dd, _ := i.([]byte)
	_, _, _ = pk, c, dd
}`
	res, _ := runTaint(t, src, "f", func(name string) bool { return name == "src" })
	facts := res.NewFacts()
	for _, stmt := range res.Fn.Body.List {
		res.Apply(stmt, facts)
	}
	check := func(name string, want bool) {
		var v *ast.Ident
		ast.Inspect(res.Fn.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name && v == nil {
				v = id
			}
			return true
		})
		vr := objVar(res.Fn.Info, v)
		if got := res.VarTainted(vr, facts); got != want {
			t.Errorf("%s: tainted=%v, want %v", name, got, want)
		}
	}
	check("a", false) // strong update untaints
	check("pk", true) // weak field write taints base
	check("c", true)  // weak index write taints base
	check("dd", true) // type assertion carries taint
}

func TestExprPosFallback(t *testing.T) {
	if got := exprPos(nil, token.Pos(7)); got != token.Pos(7) {
		t.Errorf("nil expr should use fallback, got %v", got)
	}
	id := ast.NewIdent("x")
	id.NamePos = token.Pos(3)
	if got := exprPos(id, token.Pos(7)); got != token.Pos(3) {
		t.Errorf("non-nil expr should use its own pos, got %v", got)
	}
}

func TestTaintSelectorOfPackageIsClean(t *testing.T) {
	src := `package p
import "os"
func src() []byte { return nil }
func f() {
	a := os.Args
	_ = a
	b := src()
	_ = b
}`
	res, _ := runTaint(t, src, "f", func(name string) bool { return name == "src" })
	facts := res.NewFacts()
	for _, stmt := range res.Fn.Body.List {
		res.Apply(stmt, facts)
	}
	var v *ast.Ident
	ast.Inspect(res.Fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "a" && v == nil {
			v = id
		}
		return true
	})
	if res.VarTainted(objVar(res.Fn.Info, v), facts) {
		t.Error("package selection must not taint")
	}
	_ = strings.TrimSpace("")
}
