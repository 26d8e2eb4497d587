// Package oltpsim reproduces "Impact of Chip-Level Integration on
// Performance of OLTP Workloads" (Barroso, Gharachorloo, Nowatzyk, Verghese;
// HPCA-6, 2000) as a simulation library.
//
// The package is a facade over the internal packages:
//
//   - a protocol-level multiprocessor memory-system simulator
//     (set-associative caches, MESI directory coherence with 2-hop/3-hop
//     classification, remote access caches, victim buffers, in-order and
//     out-of-order processor timing models, the paper's Figure 3 latency
//     model and a constructive derivation of it);
//   - a functional TPC-B database engine standing in for Oracle 7.3.2
//     (buffer pool with cache-buffers-chains, latches, redo log with group
//     commit, undo segments, log-writer and database-writer daemons) whose
//     real transaction executions emit the simulated memory references;
//   - an OS model (scheduler with dedicated server processes, NUMA page
//     placement, code replication, syscall paths);
//   - experiment runners that regenerate every figure of the paper's
//     evaluation.
//
// Quick start:
//
//	cfg := oltpsim.FullIntegrationConfig(8, 2*oltpsim.MB, 8)
//	res := oltpsim.DefaultOptions().Run(cfg)
//	fmt.Print(res.Summary())
//
// Every run is a pure function of (configuration, seed), so independent
// configurations can be swept in parallel with bit-identical results:
//
//	results := oltpsim.DefaultOptions().RunMany(cfgs) // Workers=0 -> GOMAXPROCS
package oltpsim

import (
	"oltpsim/internal/cli"
	"oltpsim/internal/core"
	"oltpsim/internal/experiments"
	"oltpsim/internal/oltp"
	"oltpsim/internal/stats"
)

// Size units.
const (
	KB = core.KB
	MB = core.MB
)

// Config describes one simulated machine; see the field documentation in
// internal/core.
type Config = core.Config

// LatencyTable is the end-to-end latency vector of paper Figure 3.
type LatencyTable = core.LatencyTable

// CrossingModel derives latency tables from per-component costs.
type CrossingModel = core.CrossingModel

// IntegrationLevel enumerates the integration steps under study.
type IntegrationLevel = core.IntegrationLevel

// Integration levels.
const (
	ConservativeBase = core.ConservativeBase
	Base             = core.Base
	IntegratedL2     = core.IntegratedL2
	IntegratedL2MC   = core.IntegratedL2MC
	FullIntegration  = core.FullIntegration
)

// L2Tech selects the L2 array implementation.
type L2Tech = core.L2Tech

// L2 technologies.
const (
	OffChipSRAM = core.OffChipSRAM
	OnChipSRAM  = core.OnChipSRAM
	OnChipDRAM  = core.OnChipDRAM
)

// Result is one configuration's measured outcome.
type Result = stats.RunResult

// Options is the warmup/measure protocol. Options.RunMany fans a list of
// configurations across a bounded worker pool (Options.Workers goroutines;
// 0 means GOMAXPROCS, 1 forces serial) with results in input order,
// bit-identical to a serial sweep.
type Options = experiments.Options

// Figure is a reproduced paper figure (a titled series of Results).
type Figure = experiments.Figure

// WorkloadParams configures the TPC-B/Oracle-style workload.
type WorkloadParams = oltp.Params

// System is the assembled machine (CPUs, cache hierarchies, directory,
// latency model) driving a workload.
type System = core.System

// Workload is the interface a reference source must satisfy; the OLTP
// harness implements it.
type Workload = core.Workload

// System and workload constructors.
var (
	NewSystem             = core.NewSystem
	MustNewSystem         = core.MustNewSystem
	NewWorkload           = oltp.NewHarness
	MustNewWorkload       = oltp.MustNewHarness
	DefaultWorkloadParams = oltp.DefaultParams
)

// Configuration constructors (paper Figure 3 rows).
var (
	BaseConfig            = core.BaseConfig
	ConservativeConfig    = core.ConservativeConfig
	IntegratedL2Config    = core.IntegratedL2Config
	L2MCConfig            = core.L2MCConfig
	FullIntegrationConfig = core.FullConfig
)

// Latency model entry points.
var (
	Latencies            = core.Latencies
	FigureThree          = core.FigureThree
	DefaultCrossingModel = core.DefaultCrossingModel
)

// Measurement protocols. LoadSchedule decodes and compiles a scenario
// profile for Options.Scenario: a time-varying transaction mix such as
// examples/scenarios/dss.json, the scan-only decision-support contrast of
// the paper's introduction.
var (
	DefaultOptions = experiments.DefaultOptions
	QuickOptions   = experiments.QuickOptions
	LoadSchedule   = cli.LoadSchedule
)

// Scoring against the paper's published values.
var (
	CompareWithPaper      = experiments.Compare
	RenderPaperComparison = experiments.RenderComparison
)

// Figure runners: one per figure of the paper's evaluation section.
var (
	Fig05      = experiments.Fig05
	Fig06      = experiments.Fig06
	Fig07      = experiments.Fig07
	Fig08      = experiments.Fig08
	Fig10Uni   = experiments.Fig10Uni
	Fig10MP    = experiments.Fig10MP
	Fig11      = experiments.Fig11
	Fig12Small = experiments.Fig12Small
	Fig12Large = experiments.Fig12Large
	Fig13Uni   = experiments.Fig13Uni
	Fig13MP    = experiments.Fig13MP
)
