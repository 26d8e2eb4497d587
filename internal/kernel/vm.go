// Package kernel models the operating-system pieces the workload depends on:
// a virtual address space with NUMA page-placement policies (including the
// OS-based code replication studied in paper Section 6), and a per-CPU
// process scheduler with time slices, blocking, and context-switch overhead.
// The paper runs Oracle under Digital Unix inside SimOS and reports ~25% of
// OLTP execution in the kernel; this package is our stand-in for that layer.
package kernel

import (
	"fmt"
	"sort"

	"oltpsim/internal/memref"
)

// Placement is a page-placement policy for a region of the address space.
type Placement uint8

const (
	// RoundRobinPages stripes successive pages across nodes. This is the
	// paper's situation for the SGA: "it is very difficult to do data
	// placement for OLTP, hence the chance of finding data locally is on
	// average 1-in-8 given 8 nodes".
	RoundRobinPages Placement = iota
	// NodeLocal places the whole region on one node (process-private memory:
	// stacks, PGA, kernel per-process structures).
	NodeLocal
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case RoundRobinPages:
		return "round-robin"
	case NodeLocal:
		return "node-local"
	default:
		return "?"
	}
}

// Region is a contiguous range of the simulated address space with one
// placement policy.
type Region struct {
	Name      string
	Base      uint64
	Size      uint64
	Placement Placement
	// Node is the owner for NodeLocal regions.
	Node int
}

// End returns one past the last byte of the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// AddressSpace maps lines to home nodes through its region table. Regions
// must not overlap; lookups outside any region fall back to round-robin
// placement so that stray addresses are never fatal in a long simulation.
type AddressSpace struct {
	nodes   int
	regions []Region // sorted by Base
	// bases/ends shadow regions' bounds in flat slices so the lookup binary
	// search touches small contiguous memory instead of striding across the
	// full Region structs.
	bases []uint64
	ends  []uint64
	// last is the index of the most recently matched region. Reference
	// streams have strong region locality (a code walk or a block touch
	// issues runs of addresses in one region), so checking it first skips
	// the search entirely most of the time. It only short-circuits to an
	// identical answer, so lookups stay pure functions of the address.
	last int
}

// NewAddressSpace creates an address space for a machine with nodes memories.
func NewAddressSpace(nodes int) *AddressSpace {
	if nodes <= 0 {
		panic("kernel: address space needs at least one node")
	}
	return &AddressSpace{nodes: nodes}
}

// AddRegion registers a region. It panics on overlap — the layout is
// constructed once by the harness, so an overlap is a programming error.
func (as *AddressSpace) AddRegion(r Region) {
	if r.Size == 0 {
		panic(fmt.Sprintf("kernel: region %s has zero size", r.Name))
	}
	for _, q := range as.regions {
		if r.Base < q.End() && q.Base < r.End() {
			panic(fmt.Sprintf("kernel: region %s [%#x,%#x) overlaps %s [%#x,%#x)",
				r.Name, r.Base, r.End(), q.Name, q.Base, q.End()))
		}
	}
	as.regions = append(as.regions, r)
	sort.Slice(as.regions, func(i, j int) bool { return as.regions[i].Base < as.regions[j].Base })
	as.bases = as.bases[:0]
	as.ends = as.ends[:0]
	for i := range as.regions {
		as.bases = append(as.bases, as.regions[i].Base)
		as.ends = append(as.ends, as.regions[i].End())
	}
	as.last = 0
}

// RegionOf returns the region containing addr, or nil.
func (as *AddressSpace) RegionOf(addr uint64) *Region {
	if len(as.bases) == 0 {
		return nil
	}
	if i := as.last; addr >= as.bases[i] && addr < as.ends[i] {
		return &as.regions[i]
	}
	// Manual binary search for the first base > addr; sort.Search's closure
	// calls are too expensive for a per-reference lookup.
	lo, hi := 0, len(as.bases)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if as.bases[mid] > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return nil
	}
	i := lo - 1
	if addr >= as.ends[i] {
		return nil
	}
	as.last = i
	return &as.regions[i]
}

// HomeOf returns the home node of the line containing addr.
func (as *AddressSpace) HomeOf(addr uint64) int {
	r := as.RegionOf(addr)
	if r == nil {
		return int(memref.PageOf(addr)) % as.nodes
	}
	if r.Placement == NodeLocal {
		return r.Node
	}
	return int((addr-r.Base)>>memref.PageShift) % as.nodes
}

// Nodes returns the machine size the space was built for.
func (as *AddressSpace) Nodes() int { return as.nodes }

// Regions returns a copy of the region table for reporting.
func (as *AddressSpace) Regions() []Region {
	out := make([]Region, len(as.regions))
	copy(out, as.regions)
	return out
}

// TotalSize sums the sizes of all regions.
func (as *AddressSpace) TotalSize() uint64 {
	var n uint64
	for _, r := range as.regions {
		n += r.Size
	}
	return n
}
