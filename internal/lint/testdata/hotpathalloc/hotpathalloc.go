// Package hotpathalloc is the oltpvet fixture for the hot-path allocation
// analyzer. The test wires System.Step as the hot root; every helper Step
// calls demonstrates one flagged construct or one deliberately quiet idiom,
// and offline shows that the same constructs are free off the hot path.
package hotpathalloc

import (
	"fmt"
	"strings"
)

// point is a small struct used for the escape and boxing cases.
type point struct{ x, y int }

// System mirrors the production hot root shape.
type System struct {
	q     []int
	count uint64
	hook  func() int
}

// Step is the hot root: everything it reaches is on the allocation-free
// path.
func (s *System) Step(v int) {
	s.count++
	s.enqueue(v)
	s.format(v)
	s.build(v)
	s.fresh(v)
	s.bounded(v)
	s.escape(v)
	s.box(v)
	s.assignBox(v)
	s.literal(v)
	s.closure(v)
	s.storeElement(v)
	s.storeAssign(v)
	_ = s.storeReturn()
	s.storeStatic()
	s.passArg(v)
	s.guard(v)
	s.debug(v)
}

// enqueue grows long-lived state: amortized doubling, the allowed idiom.
func (s *System) enqueue(v int) {
	s.q = append(s.q, v)
}

// format calls fmt per step.
func (s *System) format(v int) string {
	return fmt.Sprintf("%d", v) // want "fmt.Sprintf formats and allocates in the hot path"
}

// build assembles a string per step.
func (s *System) build(v int) string {
	var b strings.Builder
	b.WriteByte(byte(v)) // want "strings.Builder.WriteByte builds strings on the heap"
	return b.String()    // want "strings.Builder.String builds strings on the heap"
}

// fresh appends to a slice born this call: the growth is never amortized.
func (s *System) fresh(v int) int {
	out := make([]int, 0)
	out = append(out, v) // want "append may grow its backing array each step"
	return len(out)
}

// bounded appends into an explicitly pre-sized buffer: the capacity states
// the bound, so the append cannot grow it.
func (s *System) bounded(v int) int {
	buf := make([]int, 0, 4)
	buf = append(buf, v)
	return len(buf)
}

// escape returns a pointer to a literal, forcing it to the heap.
func (s *System) escape(v int) *point {
	return &point{x: v} // want "point escapes to the heap"
}

func eat(v any) {}

// box passes a struct value into an interface parameter.
func (s *System) box(v int) {
	eat(point{x: v}) // want "boxes it on the heap"
}

// assignBox boxes through a plain assignment into an interface variable.
func (s *System) assignBox(v int) any {
	var sink any
	sink = v // want "boxes it on the heap"
	return sink
}

// literal allocates backing stores for slice and map literals per step.
func (s *System) literal(v int) {
	xs := []int{v}         // want "literal allocates its backing store"
	m := map[int]int{v: v} // want "literal allocates its backing store"
	_, _ = xs, m
}

// closure shows that a literal created on the hot path is itself hot.
// Binding it with := stays quiet although it captures v: the closure
// does not outlive the call.
func (s *System) closure(v int) int {
	f := func() string {
		return fmt.Sprint(v) // want "fmt.Sprint formats and allocates"
	}
	return len(f())
}

// action carries a callback to run later.
type action struct{ run func() int }

// storeElement stores a capturing literal as a composite-literal element:
// each call allocates the closure.
func (s *System) storeElement(v int) int {
	a := action{run: func() int { return v }} // want "func literal capturing v is stored"
	return a.run()
}

// storeAssign stores a capturing literal in long-lived state.
func (s *System) storeAssign(v int) {
	s.hook = func() int { return v + 1 } // want "func literal capturing v is stored"
}

// storeReturn hands a capturing literal to its caller.
func (s *System) storeReturn() func() int {
	return func() int { return int(s.count) } // want "func literal capturing s is stored"
}

// limit is package state: a literal that reads it captures nothing.
var limit = 4

// storeStatic stores literals that capture no variable of an enclosing
// function, so they are static function values and need no closure.
func (s *System) storeStatic() {
	s.hook = func() int { return limit }
	s.hook = func() int { n := 2; return n }
}

// each calls fn n times, the way the emitter walks a code region.
func each(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// passArg passes a capturing literal as a call argument: the callee does
// not keep it, so it stays quiet.
func (s *System) passArg(v int) {
	each(v, func(i int) { s.count += uint64(i) })
}

// guard shows the panic exemption: by the time the arguments evaluate, the
// run is already lost.
func (s *System) guard(v int) {
	if v < 0 {
		panic(fmt.Sprintf("negative step %d", v))
	}
}

// debug is diagnostic-only instrumentation, pruned from the hot set.
//
//oltpvet:coldpath fixture: excluded so its formatting stays legal
func (s *System) debug(v int) {
	fmt.Println("dbg", v)
}

// offline is never called from Step: allocation is free off the hot path.
func offline(n int) []int {
	out := []int{}
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}
