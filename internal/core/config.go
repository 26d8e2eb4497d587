package core

import (
	"fmt"

	"oltpsim/internal/cache"
	"oltpsim/internal/rac"
)

// KB and MB are sizes in bytes.
const (
	KB = int64(1) << 10
	MB = int64(1) << 20
)

// L1Bytes and L1Ways are the geometry of both L1 caches of every core
// (paper Figure 2: 64 KB 2-way).
const (
	L1Bytes = 64 * KB
	L1Ways  = 2
)

// Config describes one simulated machine (paper Figure 2 plus the
// integration level under study).
type Config struct {
	// Name labels the configuration in reports ("Base", "2M8w", ...).
	Name string
	// Processors is the number of CPU cores in the machine (1 or 8 in the
	// paper, one per chip).
	Processors int
	// CoresPerChip groups cores onto chips sharing one L2/RAC/home node
	// (1 = the paper's one-core chips, as every constructor sets it). Values
	// above 1 model the chip multiprocessing the paper's conclusion proposes
	// as the next step; the CMP extension benchmark uses it.
	CoresPerChip int
	// Level is the integration level under study.
	Level IntegrationLevel
	// L2SizeBytes and L2Assoc set the unified L2 organization.
	L2SizeBytes int64
	L2Assoc     int
	// L2TechKind is the array technology (constrains what is realizable:
	// ~2 MB on-chip SRAM, ~8 MB on-chip DRAM in 0.18um).
	L2TechKind L2Tech
	// RACBytes, when nonzero, adds a remote access cache of that size
	// (multiprocessor only; its associativity is rac.Ways).
	RACBytes int64
	// OutOfOrder selects the paper's 4-wide OOO model (cpu.NewOOO's
	// defaults) instead of single-issue in-order.
	OutOfOrder bool
	// CodeReplication turns on OS-based replication of code pages at every
	// node (paper Section 6).
	CodeReplication bool
	// LatencyOverride, when non-nil, replaces the Figure 3 derivation.
	LatencyOverride *LatencyTable
	// NoMigratory disables the protocol's migratory-sharing optimization
	// (ablation: every dirty read miss then downgrades to shared and the
	// following write pays an upgrade).
	NoMigratory bool
	// VictimBuffers enables the 21364-style L2 victim buffer with the given
	// entry count (0 = disabled; Figure 3 latencies already assume the
	// production arrangement, so this is an ablation knob).
	VictimBuffers int
	// Classify enables cold/capacity/conflict miss classification on the L2
	// (costly; used by the classification experiment only).
	Classify bool
}

// Latencies resolves the latency table for the configuration.
func (c Config) Latencies() LatencyTable {
	if c.LatencyOverride != nil {
		return *c.LatencyOverride
	}
	return Latencies(c.Level, c.L2Assoc, c.L2TechKind)
}

// l1Config returns the cache geometry for an L1.
func l1Config(name string) cache.Config {
	return cache.Config{Name: name, SizeBytes: L1Bytes, Assoc: L1Ways}
}

// L2CacheConfig returns the cache geometry for the L2.
func (c Config) L2CacheConfig() cache.Config {
	return cache.Config{Name: "L2", SizeBytes: c.L2SizeBytes, Assoc: c.L2Assoc}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Processors <= 0 || c.Processors > 128 {
		return fmt.Errorf("core: %d processors out of range", c.Processors)
	}
	if c.CoresPerChip < 1 || c.Processors%c.CoresPerChip != 0 {
		return fmt.Errorf("core: %d cores do not divide into chips of %d", c.Processors, c.CoresPerChip)
	}
	if err := validateTagArray(c.L2CacheConfig()); err != nil {
		return err
	}
	if c.RACBytes != 0 {
		if c.Processors == c.CoresPerChip {
			return fmt.Errorf("core: a RAC caches remote lines and needs more than one chip")
		}
		return validateTagArray(rac.Geometry(c.RACBytes))
	}
	return nil
}

// validateTagArray checks a machine's L2 or RAC geometry, including the
// cache.MinSets floor below which some line addresses have no tag.
func validateTagArray(g cache.Config) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if g.Sets() < cache.MinSets {
		return fmt.Errorf("core: %s of %d bytes, %d-way has %d sets, under the %d a way's tag needs to reach every address",
			g.Name, g.SizeBytes, g.Assoc, g.Sets(), cache.MinSets)
	}
	return nil
}

// BaseConfig is the paper's "Base": everything off-chip, 8 MB L2 by
// default, aggressive latencies.
func BaseConfig(procs int, l2Size int64, l2Assoc int) Config {
	return Config{
		Name:         fmt.Sprintf("Base %s%dw", sizeLabel(l2Size), l2Assoc),
		Processors:   procs,
		CoresPerChip: 1,
		Level:        Base,
		L2SizeBytes:  l2Size,
		L2Assoc:      l2Assoc,
		L2TechKind:   OffChipSRAM,
	}
}

// ConservativeConfig is the paper's "Conservative Base" (8 MB 4-way in the
// figures).
func ConservativeConfig(procs int) Config {
	return Config{
		Name:         "Cons 8M4w",
		Processors:   procs,
		CoresPerChip: 1,
		Level:        ConservativeBase,
		L2SizeBytes:  8 * MB,
		L2Assoc:      4,
		L2TechKind:   OffChipSRAM,
	}
}

// IntegratedL2Config integrates the L2 on die (SRAM or DRAM array).
func IntegratedL2Config(procs int, l2Size int64, l2Assoc int, tech L2Tech) Config {
	return Config{
		Name:         fmt.Sprintf("L2 %s%dw", sizeLabel(l2Size), l2Assoc),
		Processors:   procs,
		CoresPerChip: 1,
		Level:        IntegratedL2,
		L2SizeBytes:  l2Size,
		L2Assoc:      l2Assoc,
		L2TechKind:   tech,
	}
}

// L2MCConfig integrates the L2 and memory controller.
func L2MCConfig(procs int, l2Size int64, l2Assoc int) Config {
	return Config{
		Name:         fmt.Sprintf("L2+MC %s%dw", sizeLabel(l2Size), l2Assoc),
		Processors:   procs,
		CoresPerChip: 1,
		Level:        IntegratedL2MC,
		L2SizeBytes:  l2Size,
		L2Assoc:      l2Assoc,
		L2TechKind:   OnChipSRAM,
	}
}

// FullConfig integrates everything (Alpha 21364-like).
func FullConfig(procs int, l2Size int64, l2Assoc int) Config {
	return Config{
		Name:         fmt.Sprintf("All %s%dw", sizeLabel(l2Size), l2Assoc),
		Processors:   procs,
		CoresPerChip: 1,
		Level:        FullIntegration,
		L2SizeBytes:  l2Size,
		L2Assoc:      l2Assoc,
		L2TechKind:   OnChipSRAM,
	}
}

func sizeLabel(b int64) string {
	switch {
	case b >= MB && b%MB == 0:
		return fmt.Sprintf("%dM", b/MB)
	case b*4%MB == 0:
		return fmt.Sprintf("%.2gM", float64(b)/float64(MB))
	default:
		return fmt.Sprintf("%dK", b/KB)
	}
}
