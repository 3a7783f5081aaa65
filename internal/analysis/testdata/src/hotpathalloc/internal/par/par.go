// Package par is a minimal stand-in for the repo's internal/par package:
// the hotpath-alloc fixture needs entry points whose import path ends in
// internal/par so literals handed to them become hot regions.
package par

// For runs body over [0, n); the fixture only needs the signature shape.
func For(n, procs int, body func(lo, hi int)) { body(0, n) }
