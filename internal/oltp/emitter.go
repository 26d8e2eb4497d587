// Package oltp glues the functional TPC-B engine to the simulated machine:
// it lays every engine structure out in a NUMA address space, runs the
// Oracle-style process architecture (dedicated server processes, a log
// writer, a database writer) on the kernel scheduler, wraps transactions in
// the kernel activity around them (client pipes, semaphores, context
// switches, I/O), and streams the resulting memory references to the timing
// models. This is the workload side of the paper's methodology (Section 2):
// 8 server processes per processor, TPC-B against a >900 MB SGA, kernel
// activity around 25% of execution.
package oltp

import (
	"oltpsim/internal/kernel"
	"oltpsim/internal/memref"
	"oltpsim/internal/tpcb"
)

// Emitter converts engine-level operations into memref.Refs in the current
// process's segment buffer. It collapses consecutive references to the same
// line (they are guaranteed L1 hits and only slow the simulation), applies
// the code-replication address transform, and tags kernel-mode references.
type Emitter struct {
	out  *kernel.RefBuffer
	node int

	// Code replication: code addresses inside the arena are rebased to the
	// node-local copy.
	replicate bool
	arenaBase uint64
	arenaSize uint64

	kernelMode bool

	// Collapse state.
	lastLine  uint64
	lastStore bool
	lastValid bool
}

// SetOutput points the emitter at the segment buffer of the process about to
// run on node. It resets the collapse window (a context switch means the L1
// residency assumption no longer holds for "same line as last time").
func (e *Emitter) SetOutput(out *kernel.RefBuffer, node int) {
	e.out = out
	e.node = node
	e.lastValid = false
	e.kernelMode = false
}

// SetKernel toggles kernel-mode attribution for subsequent references.
func (e *Emitter) SetKernel(k bool) { e.kernelMode = k }

// Code implements tpcb.Emitter: it walks the function's fetch lines. The
// replication rebase is hoisted out of the per-line closure: a function's
// region is contiguous, so either every fetch line lands in the arena or
// none does (the allocator panics on arena overflow, so a region cannot
// straddle its end).
func (e *Emitter) Code(fn *tpcb.CodeFn) {
	kern := e.kernelMode || fn.Kernel
	var rebase uint64
	if e.replicate && fn.Base >= e.arenaBase && fn.Base < e.arenaBase+e.arenaSize {
		rebase = uint64(e.node) * e.arenaSize
	}
	out := e.out
	fn.Lines(func(addr uint64, instrs int) {
		out.Append(memref.New(addr+rebase, memref.IFetch, kern, false, instrs))
	})
}

// Load implements tpcb.Emitter.
func (e *Emitter) Load(addr uint64, dep bool) {
	line := memref.LineOf(addr)
	if e.lastValid && line == e.lastLine {
		return // guaranteed L1 hit; skip for simulation speed
	}
	e.out.Append(memref.New(addr, memref.Load, e.kernelMode, dep, 0))
	e.lastLine, e.lastStore, e.lastValid = line, false, true
}

// Store implements tpcb.Emitter.
func (e *Emitter) Store(addr uint64, dep bool) {
	line := memref.LineOf(addr)
	if e.lastValid && line == e.lastLine && e.lastStore {
		return // consecutive store to the same line: guaranteed hit with rights
	}
	e.out.Append(memref.New(addr, memref.Store, e.kernelMode, dep, 0))
	e.lastLine, e.lastStore, e.lastValid = line, true, true
}
