package main

// This file holds every call the benchmark makes into the simulator's
// internal packages. Nothing else in the benchmark imports oltpsim/internal,
// so a change to the run functions or the machine API has one place to update.

import (
	"bytes"
	"fmt"
	"os"

	"oltpsim/internal/cli"
	"oltpsim/internal/core"
	"oltpsim/internal/experiments"
	"oltpsim/internal/oltp"
	"oltpsim/internal/scenario"
	"oltpsim/internal/stats"
)

// machine is one machine shape in the oltpsim flag vocabulary.
type machine struct {
	procs int
	level string
	l2    string
	assoc int
}

// protocol is the measurement protocol a runner runs every machine under.
// A zero warmup or measure means the library's default for the database
// size; scenario, when set, names a phased profile file.
type protocol struct {
	quick    bool
	seed     uint64
	warmup   uint64
	measure  uint64
	scenario string
}

// simResult is what the benchmark reads from one simulated run: the raw
// counters behind its simulated-statistics metrics, and every field of the
// result as text so two runs can be compared exactly.
type simResult struct {
	txns, nonIdle    uint64
	l1iAcc, l1iMiss  uint64
	l1dAcc, l1dMiss  uint64
	misses, local    uint64
	twoHop, threeHop uint64
	invalidations    uint64
	simTxns          uint64
	exact            string
}

// runner runs machines under one protocol. Machines of one runner share
// the library's set-up caches, as the bars of one figure sweep do.
type runner struct {
	opt   experiments.Options
	sched *scenario.Schedule
}

// newRunner resolves a protocol into the library's run options.
func newRunner(p protocol) (*runner, error) {
	opt := experiments.DefaultOptions()
	if p.quick {
		opt = experiments.QuickOptions()
	}
	opt.Seed = p.seed
	if p.warmup != 0 {
		opt.WarmupTxns = p.warmup
	}
	if p.measure != 0 {
		opt.MeasureTxns = p.measure
	}
	s := &runner{opt: opt}
	if p.scenario != "" {
		data, err := os.ReadFile(p.scenario)
		if err != nil {
			return nil, err
		}
		prof, err := scenario.DecodeProfile(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.scenario, err)
		}
		if s.sched, err = prof.Compile(); err != nil {
			return nil, fmt.Errorf("%s: %w", p.scenario, err)
		}
		s.opt.Scenario = s.sched
	}
	return s, nil
}

// lengths returns the runner's warmup and measured transactions per
// machine.
func (s *runner) lengths() (warmup, measure uint64) {
	return s.opt.WarmupTxns, s.opt.MeasuredTxns()
}

// config resolves a machine shape exactly as the oltpsim command does.
func config(m machine) (core.Config, error) {
	return cli.Build(cli.MachineSpec{Procs: m.procs, Level: m.level, L2: m.l2, Assoc: m.assoc})
}

// runPlain runs one machine through the library's own run function, untraced.
func (s *runner) runPlain(m machine) (simResult, error) {
	cfg, err := config(m)
	if err != nil {
		return simResult{}, err
	}
	if s.sched != nil {
		return s.result(s.opt.RunScenario(cfg).Total), nil
	}
	return s.result(s.opt.Run(cfg)), nil
}

// runTraced performs the same run as runPlain one layer call at a time, with
// a span around each call and counts at the same boundaries. Between warmup
// and measurement it saves the machine and loads the snapshot back, which
// must leave the result unchanged.
func (s *runner) runTraced(m machine, tr *tracer) (simResult, error) {
	cfg, err := config(m)
	if err != nil {
		return simResult{}, err
	}
	var h *oltp.Harness
	tr.span("oltp.new_harness", func() { h, err = oltp.NewHarness(s.opt.Params(cfg)) })
	if err != nil {
		return simResult{}, err
	}
	var sys *core.System
	tr.span("core.new_system", func() { sys, err = core.NewSystem(cfg, h) })
	if err != nil {
		return simResult{}, err
	}
	tr.span("core.warmup", func() { sys.RunUntil(s.opt.WarmupTxns) })
	var snap bytes.Buffer
	tr.span("snapshot.save", func() { err = sys.Save(&snap) })
	if err != nil {
		return simResult{}, err
	}
	tr.count("snapshot.bytes", float64(snap.Len()))
	tr.span("snapshot.load", func() { err = sys.Load(&snap) })
	if err != nil {
		return simResult{}, err
	}

	steps, ff := sys.Steps(), sys.FastForwarded()
	var res stats.RunResult
	tr.span("core.measure", func() {
		if s.sched == nil {
			res = sys.RunMeasured(s.opt.MeasureTxns)
			return
		}
		sys.ResetStats()
		base := sys.Committed()
		for i := 0; i < s.sched.NumPhases(); i++ {
			name := "scenario." + s.sched.PhaseName(i)
			from := sys.Steps()
			tr.span(name, func() { sys.RunUntil(base + s.sched.Boundary(i)) })
			tr.count(name+".refs", float64(sys.Steps()-from))
		}
		res = sys.Collect(cfg.Name, sys.Committed()-base)
	})
	tr.count("core.refs", float64(sys.Steps()-steps))
	tr.count("core.ff_refs", float64(sys.FastForwarded()-ff))
	return s.result(res), nil
}

// result extracts the benchmark's view of a run result.
func (s *runner) result(r stats.RunResult) simResult {
	return simResult{
		txns:          r.Txns,
		nonIdle:       r.Breakdown.NonIdle(),
		l1iAcc:        r.L1IAccesses,
		l1iMiss:       r.L1IMisses,
		l1dAcc:        r.L1DAccesses,
		l1dMiss:       r.L1DMisses,
		misses:        r.Miss.Total(),
		local:         r.Miss.Local(),
		twoHop:        r.Miss.RemoteClean(),
		threeHop:      r.Miss.RemoteDirty(),
		invalidations: r.Invalidations,
		exact:         fmt.Sprintf("%+v", r),
	}
}
