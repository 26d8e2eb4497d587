package oltp

import (
	"fmt"

	"oltpsim/internal/scenario"
	"oltpsim/internal/tpcb"
)

// The fixed shape of the paper's Oracle instance (Section 2.1).
const (
	// ServersPerCPU is the dedicated-server multiprogramming level: 8 per
	// processor, to hide I/O latencies.
	ServersPerCPU = 8
	// LogIOPerKB is the redo-log write's transfer time per KB of gathered
	// redo, on top of LogIOCycles.
	LogIOPerKB = 500
	// DBWRBatch is how many dirty blocks one database-writer pass writes.
	DBWRBatch = 64
	// SchedQuantum is the scheduler time slice in references.
	SchedQuantum = 40_000
)

// Params configures the workload harness.
type Params struct {
	// CPUs is the number of cores (matches core.Config.Processors).
	CPUs int
	// CoresPerChip groups cores onto chips; the address space then has
	// CPUs/CoresPerChip NUMA nodes (1 = one core per chip, the paper's).
	CoresPerChip int
	// Seed drives every random stream in the workload.
	Seed uint64
	// TPCB sizes the database.
	TPCB tpcb.Config
	// CodeReplication replicates instruction pages at every node (paper
	// Section 6's OS-based replication experiment).
	CodeReplication bool
	// Scenario, when non-nil, runs the time-varying workload schedule:
	// transaction mix, branch skew, and working-set scale switch per phase
	// at exact committed-transaction boundaries. Nil keeps today's
	// steady-state fixed-mix TPC-B, byte for byte.
	Scenario *scenario.Schedule
	// ScenarioBase is the committed-transaction count at which the
	// schedule's phase clock starts (normally the warmup length, so phase 0
	// also governs warmup).
	ScenarioBase uint64

	// LogIOCycles is the redo-log disk write latency (battery-backed
	// controller class device; group commit amortizes it).
	LogIOCycles uint64
	// DBWRSleepCycles is the database writer's wakeup period.
	DBWRSleepCycles uint64
	// DBWRIOCycles is the DBWR write latency.
	DBWRIOCycles uint64
}

// DefaultParams returns the paper-fidelity workload for a machine size.
func DefaultParams(cpus int) Params {
	return Params{
		CPUs:            cpus,
		CoresPerChip:    1,
		Seed:            0x5eed_0217_beef_cafe,
		TPCB:            tpcb.DefaultConfig(),
		LogIOCycles:     45_000,
		DBWRSleepCycles: 1_500_000,
		DBWRIOCycles:    150_000,
	}
}

// TestParams returns a scaled-down workload for unit tests: the small
// database and short I/O times keep test runs fast while exercising the same
// code paths.
func TestParams(cpus int) Params {
	p := DefaultParams(cpus)
	p.TPCB = tpcb.SmallConfig()
	p.LogIOCycles = 20_000
	p.DBWRSleepCycles = 300_000
	p.DBWRIOCycles = 30_000
	return p
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.CPUs <= 0 {
		return fmt.Errorf("oltp: CPUs must be positive")
	}
	if p.CoresPerChip < 1 || p.CPUs%p.CoresPerChip != 0 {
		return fmt.Errorf("oltp: %d CPUs do not divide into chips of %d", p.CPUs, p.CoresPerChip)
	}
	return p.TPCB.Validate()
}
