// Package memref defines the memory-reference vocabulary shared by the
// workload generators and the timing models: a Ref is one instruction-fetch
// line or one data access, annotated with enough information for both the
// in-order and out-of-order processor models to time it and for the
// statistics machinery to attribute it.
//
// A Ref is one 64-bit word, so a reference crosses the scheduler, the memory
// hierarchy and the processor model in a single register and a segment
// buffer holds 8 bytes per reference:
//
//	bits  0-39  byte address                              Ref.Addr, at most MaxAddr
//	bits 40-47  zero
//	bits 48-49  access type (IFetch, Load, Store)         Ref.Kind
//	bit  50     issued in kernel mode                     Ref.Kernel
//	bit  51     depends on the previous data access       Ref.DepPrev
//	bits 52-63  instructions executed from a fetch line   Ref.Instrs, at most MaxInstrs
//
// New is the only way to build a non-zero Ref and panics on a field its bits
// cannot hold, so a reference can never silently lose bits.
//
// The address stops at 40 bits, below what the word could carry, because a
// cache way stores a line as a 29-bit tag (the line index divided by the
// set count): 2^40 bytes is 2^34 lines, which 29 bits cover once a cache
// has 32 sets (cache.MinSets). The OLTP harness maps nothing at or above
// 2^37.
package memref

import "fmt"

// LineBytes is the coherence/cache line size used throughout the study
// (paper Figure 2: 64-byte lines).
const LineBytes = 64

// LineShift is log2(LineBytes).
const LineShift = 6

// PageBytes is the virtual-memory page size (8 KB, the Alpha page size).
const PageBytes = 8192

// PageShift is log2(PageBytes).
const PageShift = 13

// Kind distinguishes the three access types the simulator times.
type Kind uint8

const (
	// IFetch is an instruction fetch of one cache line. Its Instrs count
	// is the number of instructions executed out of that line, which is
	// the busy-cycle contribution of the fetch on the single-issue model.
	IFetch Kind = iota
	// Load is a data read.
	Load
	// Store is a data write. The simulated memory system is sequentially
	// consistent, so stores stall the in-order processor just as loads do.
	Store
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case IFetch:
		return "ifetch"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return "unknown"
	}
}

// Ref is a single memory reference emitted by a workload generator, packed
// as the package comment lays out. The zero Ref is an instruction fetch of
// address 0 with no instructions.
type Ref struct{ w uint64 }

// Field limits of the packed layout.
const (
	// MaxAddr is the largest byte address a Ref holds (40 bits).
	MaxAddr = 1<<addrBits - 1
	// MaxInstrs is the largest instruction count a Ref holds (12 bits).
	MaxInstrs = 1<<(64-instrsShift) - 1
)

const (
	addrBits    = 40
	kindShift   = 48
	kernelBit   = 1 << 50
	depPrevBit  = 1 << 51
	instrsShift = 52
)

// New packs one reference:
//
//   - addr is the (virtual == simulated physical) byte address, at most
//     MaxAddr;
//   - kind says whether this is an instruction fetch, load, or store;
//   - kernel marks references issued in kernel mode, for the user/system
//     attribution the paper reports (~25% kernel for OLTP);
//   - depPrev marks a data access whose address depends on the result of the
//     previous data access by the same process (pointer chasing, e.g. hash
//     chain walks). The out-of-order model serializes such chains;
//     everything else may overlap within the instruction window;
//   - instrs is, for IFetch refs, the number of instructions executed from
//     the fetched line (1..16 for 4-byte instructions in a 64-byte line),
//     at most MaxInstrs. Zero for data refs: a data access's instruction is
//     accounted by the fetch of the line containing it.
func New(addr uint64, kind Kind, kernel, depPrev bool, instrs int) Ref {
	if addr > MaxAddr || kind > Store || uint(instrs) > MaxInstrs {
		panic(fieldError{addr, kind, instrs})
	}
	w := addr | uint64(kind)<<kindShift | uint64(instrs)<<instrsShift
	if kernel {
		w |= kernelBit
	}
	if depPrev {
		w |= depPrevBit
	}
	return Ref{w}
}

// fieldError is New's panic value: the fields of a reference the packed
// layout cannot hold.
type fieldError struct {
	addr   uint64
	kind   Kind
	instrs int
}

func (e fieldError) Error() string {
	return fmt.Sprintf("memref: reference out of range: address %#x (max %#x), kind %d (max %d), %d instructions (max %d)",
		e.addr, uint64(MaxAddr), e.kind, Store, e.instrs, MaxInstrs)
}

// Addr returns the byte address.
func (r Ref) Addr() uint64 { return r.w & MaxAddr }

// Kind returns the access type.
func (r Ref) Kind() Kind { return Kind(r.w >> kindShift & 3) }

// Kernel reports whether the reference was issued in kernel mode.
func (r Ref) Kernel() bool { return r.w&kernelBit != 0 }

// DepPrev reports whether the data access depends on the previous one.
func (r Ref) DepPrev() bool { return r.w&depPrevBit != 0 }

// Instrs returns the instruction count of an instruction fetch.
func (r Ref) Instrs() int { return int(r.w >> instrsShift) }

// Line returns the cache-line address (byte address with the offset bits
// cleared).
func (r Ref) Line() uint64 { return r.w & (MaxAddr &^ (LineBytes - 1)) }

// LineOf returns the line address containing addr.
func LineOf(addr uint64) uint64 { return addr &^ (LineBytes - 1) }

// PageOf returns the page number containing addr.
func PageOf(addr uint64) uint64 { return addr >> PageShift }
