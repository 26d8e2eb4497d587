// Package core implements the paper's primary contribution: the model of
// chip-level integration. An IntegrationLevel says which system modules
// (L2 cache, memory controller, coherence controller + network router) are
// on the processor die; from it and the L2 organization the package derives
// the end-to-end memory latencies of paper Figure 3, and assembles the whole
// simulated machine (caches, directory, RAC, CPU timing models) around a
// workload.
package core

// IntegrationLevel enumerates the successive integration steps the paper
// studies (Sections 3-5).
type IntegrationLevel uint8

const (
	// ConservativeBase: all modules off-chip, conventional (less optimized)
	// memory system.
	ConservativeBase IntegrationLevel = iota
	// Base: all modules off-chip but aggressively optimized for the 0.18um
	// generation.
	Base
	// IntegratedL2: L2 data on the processor die (Section 3).
	IntegratedL2
	// IntegratedL2MC: L2 and memory controller on die, coherence controller
	// and router still external (Section 4) — note the *higher* 2-hop
	// latency this split causes.
	IntegratedL2MC
	// FullIntegration: L2, MC, coherence controller and network router all
	// on die, like the Alpha 21364 (Section 5).
	FullIntegration
)

// String implements fmt.Stringer.
func (l IntegrationLevel) String() string {
	switch l {
	case ConservativeBase:
		return "conservative-base"
	case Base:
		return "base"
	case IntegratedL2:
		return "L2"
	case IntegratedL2MC:
		return "L2+MC"
	case FullIntegration:
		return "L2+MC+CC/NR"
	default:
		return "?"
	}
}

// L2Tech selects the L2 array implementation for integrated designs
// (Section 2.3): on-chip SRAM allows ~2 MB at 15 cycles; embedded DRAM
// allows ~8 MB at 25 cycles.
type L2Tech uint8

const (
	// OffChipSRAM: external SRAM array (Base configurations).
	OffChipSRAM L2Tech = iota
	// OnChipSRAM: integrated SRAM array.
	OnChipSRAM
	// OnChipDRAM: integrated embedded-DRAM array.
	OnChipDRAM
)

// String implements fmt.Stringer.
func (t L2Tech) String() string {
	switch t {
	case OffChipSRAM:
		return "off-chip SRAM"
	case OnChipSRAM:
		return "on-chip SRAM"
	case OnChipDRAM:
		return "on-chip DRAM"
	default:
		return "?"
	}
}

// LatencyTable is the end-to-end latency vector of paper Figure 3, in
// processor cycles (== ns at 1 GHz).
type LatencyTable struct {
	// L2Hit is a hit in the second-level cache.
	L2Hit uint32
	// Local is a miss serviced by the node's own memory.
	Local uint32
	// Remote is a clean miss serviced by a remote home memory (2-hop).
	Remote uint32
	// RemoteDirty is a miss serviced by a dirty copy in a remote L2 (3-hop).
	RemoteDirty uint32
	// RemoteDirtyRAC is a miss serviced by a dirty copy in a remote
	// memory-backed RAC (Section 6: 250 ns vs. 200 ns from a remote L2 in
	// the fully integrated design).
	RemoteDirtyRAC uint32
	// RACHit is a hit in the node's own RAC; its data path is local memory
	// (75 ns) because the RAC stores data in main memory with on-chip tags.
	RACHit uint32
}

// Latencies returns the Figure 3 row for an integration level, L2
// associativity, and L2 technology, as DefaultCrossingModel derives it from
// component costs. The associativity only matters for off-chip caches
// (external set selection adds 5 cycles: 25 -> 30); the technology only
// matters for integrated caches (DRAM: 15 -> 25). TestFigureThreeValues
// holds the published rows.
func Latencies(level IntegrationLevel, l2Assoc int, tech L2Tech) LatencyTable {
	return DefaultCrossingModel().Derive(level, l2Assoc, tech)
}

// FigureThree returns every row of paper Figure 3 in presentation order,
// with the labels the paper uses.
func FigureThree() []struct {
	Label string
	Lat   LatencyTable
} {
	return []struct {
		Label string
		Lat   LatencyTable
	}{
		{"Conservative Base", Latencies(ConservativeBase, 4, OffChipSRAM)},
		{"Base, 1-way L2", Latencies(Base, 1, OffChipSRAM)},
		{"Base, n-way L2", Latencies(Base, 4, OffChipSRAM)},
		{"L2 integrated, SRAM L2", Latencies(IntegratedL2, 8, OnChipSRAM)},
		{"L2 integrated, DRAM L2", Latencies(IntegratedL2, 8, OnChipDRAM)},
		{"L2, MC integrated", Latencies(IntegratedL2MC, 8, OnChipSRAM)},
		{"L2, MC, CC/NR integrated", Latencies(FullIntegration, 8, OnChipSRAM)},
	}
}
