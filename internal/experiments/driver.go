package experiments

import (
	"bytes"
	"fmt"

	"oltpsim/internal/core"
	"oltpsim/internal/stats"
)

// Run executes one configuration under the protocol and returns the whole
// measured run.
func (o Options) Run(cfg core.Config) stats.RunResult { return o.RunScenario(cfg).Total }

// RunScenario executes one configuration under the protocol and segments
// the measurement: per phase of Options.Scenario, or as one segment for a
// steady run (nil Scenario).
func (o Options) RunScenario(cfg core.Config) ScenarioResult {
	sr, _, err := o.Execute(cfg, CheckpointRun{})
	if err != nil {
		panic(err) // unreachable: without hooks there is nothing to fail
	}
	return sr
}

// segments returns the measured run's segment count: the scenario's phases,
// or one segment of MeasureTxns for a steady run.
func (o Options) segments() int {
	if o.Scenario == nil {
		return 1
	}
	return o.Scenario.NumPhases()
}

// segmentEnd returns where segment i ends, in measured transactions.
func (o Options) segmentEnd(i int) uint64 {
	if o.Scenario == nil {
		return o.MeasureTxns
	}
	return o.Scenario.Boundary(i)
}

// Execute is the one driver of the measurement protocol; Run, RunScenario,
// the oltpsim command and the job server all go through it. In order it
//
//  1. warms up for WarmupTxns committed transactions,
//  2. resets statistics,
//  3. walks the segment boundaries — the scenario's phases, or a single
//     segment of MeasureTxns for a steady run — collecting cumulatively at
//     each, and
//  4. returns the per-segment result and the number of simulator steps
//     executed in this process (a resumed run counts only the steps after
//     the restore).
//
// Throughout it chunks by cr.Every, polls cr.Canceled before every chunk,
// reports cr.OnProgress, and writes checkpoints: after every quantum of
// warmup and at its end, then after every quantum counted from the
// statistics reset and at the end of measurement. Phase boundaries stop
// the run for a read-only Collect but write nothing, so a phased run writes
// at the same commit counts as a steady run of the same length.
//
// Collect is read-only, checkpoint writes are read-only, and RunUntil stops
// on exact commit boundaries, so for any quantum and any interleaving of
// checkpoint, kill and resume the result is byte-identical to an
// uninterrupted run's (TestRunCheckpointedMatchesRun,
// TestScenarioCheckpointResumeEquivalence, TestServerResumeEquivalence). A
// resume is refused, before any machine is built, when its container has
// another format or was written under another protocol (Options.admits).
func (o Options) Execute(cfg core.Config, cr CheckpointRun) (ScenarioResult, uint64, error) {
	st := checkpoint{pos: posWarming, proto: o.protocol()}
	var sys *core.System
	if cr.Resume == nil {
		sys = o.build(cfg)
	} else {
		ck, err := decodeCheckpoint(cr.Resume)
		if err == nil {
			err = o.admits(&ck)
		}
		if err == nil {
			sys = o.build(cfg)
			err = sys.Load(bytes.NewReader(ck.system))
		}
		if err != nil {
			return ScenarioResult{}, 0, fmt.Errorf("experiments: resuming checkpoint: %w", err)
		}
		st.pos, st.measureBase, st.cums = ck.pos, ck.measureBase, ck.cums
	}
	steps0 := sys.Steps()
	stop := func(err error) (ScenarioResult, uint64, error) { return ScenarioResult{}, sys.Steps() - steps0, err }
	canceled := func() bool { return cr.Canceled != nil && cr.Canceled() }
	// chunkEnd is the next quantum point counted from origin, or end if that
	// comes first.
	chunkEnd := func(origin, end uint64) uint64 {
		if cr.Every == 0 {
			return end
		}
		c := sys.Committed()
		if gap := cr.Every - (c-origin)%cr.Every; end-c > gap {
			return c + gap
		}
		return end
	}
	// write persists st, at its current position, with the machine, when
	// due.
	write := func(due bool) error {
		if !due || cr.Write == nil {
			return nil
		}
		var machine, buf bytes.Buffer
		err := sys.Save(&machine)
		if err == nil {
			err = st.encode(&buf, machine.Bytes())
		}
		if err == nil {
			err = cr.Write(buf.Bytes())
		}
		if err != nil {
			err = fmt.Errorf("experiments: writing checkpoint: %w", err)
		}
		return err
	}

	if st.pos == posWarming {
		for sys.Committed() < o.WarmupTxns {
			if canceled() {
				return stop(ErrCanceled)
			}
			next := chunkEnd(0, o.WarmupTxns)
			sys.RunUntil(next)
			if err := write(next < o.WarmupTxns && cr.Every > 0); err != nil {
				return stop(err)
			}
		}
		st.pos = posWarmed
		if err := write(true); err != nil {
			return stop(err)
		}
	}

	total := o.MeasuredTxns()
	if st.pos == posWarmed {
		st.pos, st.measureBase = posMeasuring, sys.Committed()
		sys.ResetStats()
		if cr.OnProgress != nil {
			cr.OnProgress(0, total)
		}
	}

	base := st.measureBase
	for i := len(st.cums); i < o.segments(); i++ {
		end := base + o.segmentEnd(i)
		for sys.Committed() < end {
			if canceled() {
				return stop(ErrCanceled)
			}
			next := chunkEnd(base, end)
			sys.RunUntil(next)
			// A phase boundary inside a quantum writes and reports nothing.
			quantum := next == base+total || (cr.Every > 0 && (next-base)%cr.Every == 0)
			if err := write(quantum && cr.Every > 0); err != nil {
				return stop(err)
			}
			if quantum && cr.OnProgress != nil {
				cr.OnProgress(next-base, total)
			}
		}
		st.cums = append(st.cums, sys.Collect(cfg.Name, sys.Committed()-base))
	}

	sr := ScenarioResult{Config: cfg.Name, Phases: make([]PhaseResult, len(st.cums)), Total: st.cums[len(st.cums)-1]}
	prev := &stats.RunResult{}
	for i := range st.cums {
		sr.Phases[i] = PhaseResult{Index: i, Result: stats.Sub(&st.cums[i], prev)}
		if i > 0 {
			sr.Phases[i].StartTxn = o.segmentEnd(i - 1)
		}
		if o.Scenario != nil {
			sr.Phases[i].Result.Name = o.Scenario.PhaseName(i)
		}
		prev = &st.cums[i]
	}
	if o.Scenario != nil {
		sr.Profile = o.Scenario.Name()
	}
	return sr, sys.Steps() - steps0, nil
}
