// Package pos holds hotpath-alloc positive cases. The fixture config lists
// this package in HotPackages, so every loop body here is a hot region, and
// literals handed to fix/internal/par entry points (directly or through the
// wrapper/forwarding patterns below) are hot regions anywhere.
package pos

import "fix/internal/par"

var sink []int
var total int

func observe(v any) { _ = v }

// LoopAllocs must be diagnosed once per allocating construct in the loop.
func LoopAllocs(n int) {
	for i := 0; i < n; i++ {
		buf := make([]int, 8)      // make in hot loop
		pair := []int{i, i + 1}    // slice literal
		idx := map[int]int{i: i}   // map literal
		box := &struct{ v int }{i} // pointer literal
		local := []int{}           // declared in region...
		local = append(local, i)   // ...so append reallocates every pass
		total += buf[0] + pair[0] + idx[i] + box.v + len(local)
	}
}

// CapturedClosure must be diagnosed: the literal captures acc, so each
// iteration allocates a closure.
func CapturedClosure(n int) {
	acc := 0
	for i := 0; i < n; i++ {
		add := func(v int) { acc += v }
		add(i)
	}
	total += acc
}

// Boxing must be diagnosed: i is boxed into the any parameter every pass.
func Boxing(n int) {
	for i := 0; i < n; i++ {
		observe(i)
	}
}

// ParallelBody must be diagnosed: the literal handed to par.For is a hot
// region even though it sits in no loop.
func ParallelBody(n int) {
	par.For(n, 4, func(lo, hi int) {
		scratch := make([]int, hi-lo)
		total += len(scratch)
	})
}

// pfor forwards its body parameter straight into par.For, which makes it a
// hot wrapper: literals at its call sites are hot regions.
func pfor(n int, body func(lo, hi int)) {
	par.For(n, 4, body)
}

// ThroughWrapper must be diagnosed via the wrapper fixpoint.
func ThroughWrapper(n int) {
	pfor(n, func(lo, hi int) {
		tmp := map[int]bool{lo: true}
		total += len(tmp)
	})
}

// each invokes its parameter inside a literal handed to par.For — a
// per-item wrapper; its call-site literals are hot regions too.
func each(n int, f func(i int)) {
	par.For(n, 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// ThroughInvoker must be diagnosed via the invocation rule.
func ThroughInvoker(n int) {
	each(n, func(i int) {
		tmp := []int{i}
		sink = append(sink, tmp[0])
	})
}
