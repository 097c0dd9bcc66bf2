// Package a is the allocfree golden fixture: annotated hot paths with
// allocating constructs, a clean hot path, a reviewed suppression, and
// unannotated code the analyzer must ignore.
package a

import "fmt"

// sum is an annotated hot path with a clean body: loops, arithmetic
// and projections never allocate.
//
//saqp:hotpath
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// badHot exercises the core allocating constructs in one body.
//
//saqp:hotpath
func badHot(xs []float64, n int) float64 {
	buf := make([]float64, n) // want `make with non-constant size`
	buf = append(buf, 1)      // want `append may grow`
	fmt.Println()             // want `fmt\.Println formats through reflection`
	_ = buf
	return helper(xs)
}

// helper carries no annotation, but badHot calls it, so it inherits
// the contract through the intra-package closure.
func helper(xs []float64) float64 {
	out := make([]float64, len(xs)) // want `make with non-constant size`
	copy(out, xs)
	return out[0]
}

// boxed stores an int into an interface variable.
//
//saqp:hotpath
func boxed(x int) {
	var v interface{}
	v = x // want `boxes a non-pointer value`
	_ = v
}

// captured builds a closure over its parameter and calls it.
//
//saqp:hotpath
func captured(x int) int {
	f := func() int { return x } // want `closure captures outer variables`
	return f()                   // want `call through a function value`
}

// reviewed keeps a constant-size escaping buffer that a human signed
// off on; the suppression must silence the finding.
//
//saqp:hotpath
func reviewed() []float64 {
	out := make([]float64, 64) //lint:allow saqpvet/allocfree one-time setup buffer, reviewed with the cache redesign
	return out
}

// cold allocates freely: it is neither annotated nor reachable from an
// annotated function, so the analyzer must stay silent here.
func cold(n int) []float64 {
	out := make([]float64, n)
	return append(out, 1)
}

// stack is a generic type. A method called on an instantiated receiver
// is a different object from the declared one, so the closure follows
// the call through its origin.
type stack[T any] struct{ items []T }

// push is reached from pushOne through stack[int]'s method.
func (s *stack[T]) push(v T) {
	s.items = append(s.items, v) // want `append may grow`
}

// pushOne calls a method of an instantiated generic type.
//
//saqp:hotpath
func pushOne(s *stack[int]) { s.push(1) }
