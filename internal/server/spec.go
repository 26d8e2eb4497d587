// Package server implements the oltpsim job server: a bounded queue of
// simulation sweeps submitted over a REST/JSON API, executed by a worker
// pool on top of internal/experiments, checkpointed to disk so a killed
// server resumes in-flight jobs bit-identically on restart, and observable
// through Server-Sent Events and a Prometheus text exposition.
//
// The package is deliberately free of ambient inputs: the wall clock is
// injected through Config.Now, randomness is never used (job IDs are
// sequential), and every simulation a job runs remains a pure function of
// (config, seed) — which is what makes "resume equals uninterrupted"
// provable rather than aspirational.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"oltpsim/internal/cli"
	"oltpsim/internal/core"
	"oltpsim/internal/scenario"
)

// Spec bounds. They are generous for real studies while keeping a hostile
// submission from parking the worker pool on one absurd job or allocating
// caches the machine model was never sized for.
const (
	// MaxSpecBytes bounds the JSON body of one job submission.
	MaxSpecBytes = 1 << 20
	// MaxMachines bounds the configurations in one sweep.
	MaxMachines = 64
	// MaxTxns bounds warmup and measured transactions per configuration.
	MaxTxns = 10_000_000
	// MaxNameLen bounds the display name.
	MaxNameLen = 200
	// maxCacheBytes bounds any single simulated cache array (L2 or RAC).
	maxCacheBytes = int64(1) << 30
)

// JobSpec is the wire format of one job: a sweep of machine configurations
// under a shared measurement protocol. Machine entries use the same
// vocabulary as the oltpsim CLI flags (internal/cli.MachineSpec).
type JobSpec struct {
	// Name labels the job in listings; optional.
	Name string `json:"name,omitempty"`
	// Machines are the sweep's configurations, one bar each, run in order.
	Machines []cli.MachineSpec `json:"machines"`
	// WarmupTxns and MeasureTxns set the protocol (experiments.Options).
	WarmupTxns  uint64 `json:"warmup_txns"`
	MeasureTxns uint64 `json:"measure_txns"`
	// Seed varies the workload; 0 is the paper's default seed.
	Seed uint64 `json:"seed,omitempty"`
	// Quick selects the scaled-down database.
	Quick bool `json:"quick,omitempty"`
	// CheckpointEvery is the checkpoint quantum in committed transactions.
	// Absent (null) means the server's configured default. An explicit 0
	// disables checkpointing for this job: each configuration still commits
	// its result when it finishes, but a DELETE or shutdown takes effect only
	// at the next configuration or segment boundary, and a kill loses the
	// in-flight configuration.
	CheckpointEvery *uint64 `json:"checkpoint_every,omitempty"`
	// Scenario, when present, runs every configuration under a time-varying
	// workload profile (internal/scenario) instead of the fixed mix: the
	// measured length becomes the schedule's total and measure_txns is
	// ignored. Results remain whole-run totals — identical to the last
	// cumulative collection of a phased run — so the result wire format is
	// unchanged; per-phase timelines are the oltpsim -scenario CLI's job.
	Scenario *scenario.Profile `json:"scenario,omitempty"`
}

// DecodeJobSpec reads, strictly decodes, and bounds-checks one job spec,
// and resolves every machine entry into a validated core.Config. Any spec
// it accepts builds configurations that core.Config.Validate approves —
// nothing the simulator would panic on reaches the queue (fuzzed by
// FuzzJobSpecDecode).
func DecodeJobSpec(r io.Reader) (JobSpec, []core.Config, error) {
	var spec JobSpec
	lim := io.LimitReader(r, MaxSpecBytes+1)
	dec := json.NewDecoder(lim)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, nil, fmt.Errorf("decoding job spec: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return JobSpec{}, nil, errors.New("decoding job spec: trailing data after JSON object")
	}
	cfgs, err := spec.Configs()
	if err != nil {
		return JobSpec{}, nil, err
	}
	return spec, cfgs, nil
}

// Configs validates the spec's bounds and resolves its machines.
func (s *JobSpec) Configs() ([]core.Config, error) {
	if len(s.Name) > MaxNameLen {
		return nil, fmt.Errorf("job spec: name longer than %d bytes", MaxNameLen)
	}
	if len(s.Machines) == 0 {
		return nil, errors.New("job spec: no machines")
	}
	if len(s.Machines) > MaxMachines {
		return nil, fmt.Errorf("job spec: %d machines exceeds the limit of %d", len(s.Machines), MaxMachines)
	}
	if s.MeasureTxns == 0 {
		return nil, errors.New("job spec: measure_txns must be >= 1")
	}
	if s.MeasureTxns > MaxTxns || s.WarmupTxns > MaxTxns {
		return nil, fmt.Errorf("job spec: transaction counts exceed the limit of %d", uint64(MaxTxns))
	}
	if s.CheckpointEvery != nil && *s.CheckpointEvery > MaxTxns {
		return nil, fmt.Errorf("job spec: checkpoint_every exceeds the limit of %d", uint64(MaxTxns))
	}
	if s.Scenario != nil {
		sched, err := s.Scenario.Compile()
		if err != nil {
			return nil, fmt.Errorf("job spec: scenario: %w", err)
		}
		if sched.TotalTxns() > MaxTxns {
			return nil, fmt.Errorf("job spec: scenario totals %d transactions, limit is %d", sched.TotalTxns(), uint64(MaxTxns))
		}
	}
	cfgs := make([]core.Config, len(s.Machines))
	for i, m := range s.Machines {
		cfg, err := cli.Build(m)
		if err != nil {
			return nil, fmt.Errorf("job spec: machine %d: %w", i, err)
		}
		if cfg.L2SizeBytes <= 0 || cfg.L2SizeBytes > maxCacheBytes {
			return nil, fmt.Errorf("job spec: machine %d: L2 size out of range", i)
		}
		if cfg.RACBytes > maxCacheBytes {
			return nil, fmt.Errorf("job spec: machine %d: RAC size out of range", i)
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}
