// Package experiments reproduces the paper's evaluation. A table holds one
// entry per figure with the configurations that appear as its bars;
// RunFigures runs any selection of it under the standard warmup/measure
// protocol as one sweep and returns Figures whose rendering matches the
// paper's presentation (normalized execution-time breakdowns on the left,
// normalized L2 miss breakdowns on the right).
package experiments

import (
	"oltpsim/internal/core"
	"oltpsim/internal/oltp"
	"oltpsim/internal/scenario"
	"oltpsim/internal/stats"
	"oltpsim/internal/tpcb"
)

// Options controls the measurement protocol.
type Options struct {
	// WarmupTxns positions the caches in steady state before measuring. The
	// paper's methodology warms through its fast-simulation mode; we warm
	// with real transactions.
	WarmupTxns uint64
	// MeasureTxns is the measured run length (the paper measures 2000).
	MeasureTxns uint64
	// Seed lets property tests vary the workload.
	Seed uint64
	// Quick shrinks the run for smoke tests.
	Quick bool
	// Workers bounds how many configurations the worker pool behind
	// RunMany, RunFigures and RunTimelineLadder simulates concurrently. 0
	// means runtime.GOMAXPROCS(0); 1 forces the serial path. Every
	// simulation is a pure function of (config, seed), so parallel results
	// are bit-identical to serial ones, in the same order.
	Workers int
	// Scenario, when non-nil, replaces the fixed-mix measurement with a
	// compiled time-varying schedule: the measured length becomes the
	// schedule's total transactions (MeasureTxns is ignored), phase 0 also
	// governs warmup, and RunScenario segments the result per phase. Nil —
	// every committed figure — keeps steady state, byte for byte.
	Scenario *scenario.Schedule
}

// DefaultOptions is the paper-fidelity protocol: measure 2000 transactions
// as the paper does, after warming the caches into steady state (the paper
// fast-forwards with its binary-translation mode; we warm with real
// transactions, which takes a few thousand to populate the large metadata
// arrays).
func DefaultOptions() Options {
	return Options{WarmupTxns: 3000, MeasureTxns: 2000, Seed: 0}
}

// QuickOptions is a fast variant for tests and iteration.
func QuickOptions() Options {
	return Options{WarmupTxns: 150, MeasureTxns: 400, Seed: 0, Quick: true}
}

// Params builds the workload parameters for a machine configuration.
func (o Options) Params(cfg core.Config) oltp.Params {
	p := oltp.DefaultParams(cfg.Processors)
	if o.Quick {
		p.TPCB = tpcb.QuickConfig()
	}
	if o.Seed != 0 {
		p.Seed = o.Seed
	}
	p.CodeReplication = cfg.CodeReplication
	p.CoresPerChip = cfg.CoresPerChip
	if o.Scenario != nil {
		p.Scenario = o.Scenario
		p.ScenarioBase = o.WarmupTxns
	}
	return p
}

// MeasuredTxns is the measured run length: the scenario's total when one is
// set, MeasureTxns otherwise.
func (o Options) MeasuredTxns() uint64 {
	if o.Scenario != nil {
		return o.Scenario.TotalTxns()
	}
	return o.MeasureTxns
}

// build assembles the machine for one configuration.
func (o Options) build(cfg core.Config) *core.System {
	return core.MustNewSystem(cfg, oltp.MustNewHarness(o.Params(cfg)))
}

// Figure is one reproduced figure: a titled series of bars with a designated
// normalization baseline.
type Figure struct {
	// ID is the paper's figure number ("Figure 5").
	ID string
	// Title describes the experiment.
	Title string
	// Bars are the per-configuration results, in presentation order.
	Bars []stats.RunResult
	// BaselineIdx is the bar everything is normalized to (the paper
	// normalizes to the leftmost bar).
	BaselineIdx int
}

// Baseline returns the normalization bar.
func (f *Figure) Baseline() *stats.RunResult { return &f.Bars[f.BaselineIdx] }

// NormExec returns bar i's execution time normalized to the baseline (x100,
// as the paper labels its bars).
func (f *Figure) NormExec(i int) float64 {
	b := f.Baseline().CyclesPerTxn()
	if b == 0 {
		return 0
	}
	return 100 * (f.Bars[i].CyclesPerTxn() / b)
}

// NormMisses returns bar i's miss count normalized to the baseline (x100).
func (f *Figure) NormMisses(i int) float64 {
	b := f.Baseline().MissesPerTxn()
	if b == 0 {
		return 0
	}
	return 100 * (f.Bars[i].MissesPerTxn() / b)
}

// label renames a configuration for presentation.
func label(cfg core.Config, name string) core.Config {
	cfg.Name = name
	return cfg
}
