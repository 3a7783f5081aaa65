package flow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// load typechecks one source file and returns its funcs plus the fileset.
func load(t *testing.T, src string) ([]*Func, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return CollectFuncs("p", info, []*ast.File{f}), fset
}

// fn finds a collected function by bare name.
func fn(t *testing.T, funcs []*Func, name string) *Func {
	t.Helper()
	for _, f := range funcs {
		if strings.HasSuffix(f.Name, "."+name) {
			return f
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

func TestCalleeResolution(t *testing.T) {
	funcs, _ := load(t, `package p
import "fmt"
type T struct{}
func (T) m() {}
func helper() {}
func f(err error) {
	helper()
	var t T
	t.m()
	fmt.Println()
	g := func() {}
	g()
	func() {}()
	_ = len("x")
	_ = int64(1)
	_ = err.Error()
}`)
	cg := NewCallGraph(funcs)
	f := fn(t, funcs, "f")
	var calls []*ast.CallExpr
	ast.Inspect(f.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	if len(calls) != 8 {
		t.Fatalf("expected 8 calls, got %d", len(calls))
	}
	resolve := func(c *ast.CallExpr) *Func {
		if obj := CalleeObj(f.Info, c); obj != nil {
			return cg.ByObj(obj)
		}
		return nil
	}
	if got := resolve(calls[0]); got == nil || !strings.HasSuffix(got.Name, ".helper") {
		t.Fatalf("helper() resolved to %v", got)
	}
	if got := resolve(calls[1]); got == nil || !strings.HasSuffix(got.Name, "T.m") {
		t.Fatalf("t.m() resolved to %v", got)
	}
	if obj := CalleeObj(f.Info, calls[2]); obj == nil || obj.Pkg().Path() != "fmt" {
		t.Fatalf("CalleeObj(fmt.Println) = %v", obj)
	}
	if got := resolve(calls[2]); got != nil {
		t.Fatalf("fmt.Println should not resolve to a module Func, got %v", got)
	}
	// A call through a func value, an immediately invoked literal, a
	// builtin and a conversion name no *types.Func.
	for i, what := range map[int]string{3: "g()", 4: "func(){}()", 5: "len", 6: "int64(1)"} {
		if obj := CalleeObj(f.Info, calls[i]); obj != nil {
			t.Errorf("CalleeObj(%s) = %v, want nil", what, obj)
		}
	}
	// error.Error is a method of the universe's error type: it resolves,
	// but to an object with no package.
	if obj := CalleeObj(f.Info, calls[7]); obj == nil || obj.Pkg() != nil || cg.ByObj(obj) != nil {
		t.Fatalf("CalleeObj(err.Error) = %v, want a package-less method outside the module", obj)
	}
	h := fn(t, funcs, "helper")
	if cg.ByObj(h.Obj) != h {
		t.Fatal("ByObj should return the indexed Func")
	}
	if len(cg.Funcs()) != len(funcs) {
		t.Fatal("Funcs() should return everything indexed")
	}
}

func TestTerminatesClassification(t *testing.T) {
	funcs, _ := load(t, `package p
import (
	"log"
	"os"
	"runtime"
	"testing"
)
func calls(t *testing.T, err error, fn func()) {
	panic("x")
	os.Exit(1)
	runtime.Goexit()
	log.Fatal("x")
	log.Fatalf("x")
	log.Fatalln("x")
	log.Panic("x")
	log.Panicf("x")
	log.Panicln("x")
	t.Fatal("x")
	t.Fatalf("x")
	t.FailNow()
	t.Skip("x")
	t.Skipf("x")
	t.SkipNow()
	os.Getpid()
	runtime.Gosched()
	log.Printf("x")
	t.Log("x")
	t.Error("x")
	print("x")
	fn()
	_ = err.Error()
}`)
	want := []bool{
		true, true, true, // panic, os.Exit, runtime.Goexit
		true, true, true, true, true, true, // log.Fatal*, log.Panic*
		true, true, true, true, true, true, // testing Fatal*, FailNow, Skip*
		false, false, false, false, false, // os.Getpid, Gosched, log.Printf, t.Log, t.Error
		false, false, false, // a builtin other than panic, a func value, error.Error
	}
	cg := NewCallGraph(funcs)
	f := fn(t, funcs, "calls")
	var calls []*ast.CallExpr
	ast.Inspect(f.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	if len(calls) != len(want) {
		t.Fatalf("found %d calls, want %d", len(calls), len(want))
	}
	for i, c := range calls {
		if got := cg.Terminates(f.Info, c); got != want[i] {
			t.Errorf("%s: Terminates = %v, want %v", types.ExprString(c.Fun), got, want[i])
		}
	}
}

func TestRecvTypeNames(t *testing.T) {
	funcs, _ := load(t, `package p
type G[T any] struct{}
func (*G[T]) m() {}
func (G[T]) v() {}
type M[K comparable, V any] struct{}
func (*M[K, V]) w() {}
type S struct{}
func (s *S) n() {}
func (S) val() {}
func free() {}`)
	var names []string
	for _, f := range funcs {
		names = append(names, f.Name)
	}
	want := []string{"p.G.m", "p.G.v", "p.M.w", "p.S.n", "p.S.val", "p.free"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("names = %v, want %v", names, want)
	}
	if got := recvTypeName(&ast.ArrayType{Elt: ast.NewIdent("S")}); got != "?" {
		t.Fatalf("recvTypeName(non-receiver shape) = %q, want ?", got)
	}
}
