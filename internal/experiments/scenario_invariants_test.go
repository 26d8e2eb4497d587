package experiments

import (
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/scenario"
	"oltpsim/internal/stats"
)

// The reference profiles the scenario suite runs: a transaction-mix flip, a
// skew drift with a ramp and a shrunken working set, a three-phase burst
// that exercises every phase knob at once (mix, ramp, skew, scans), and the
// single-phase degenerate that must reproduce steady state byte for byte.

func mixFlipProfile() scenario.Profile {
	return scenario.Profile{Name: "mix-flip", Phases: []scenario.Phase{
		{Name: "writes", Txns: 60},
		{Name: "reads", Txns: 60, Mix: &scenario.Mix{Update: 1, Read: 2}},
	}}
}

func skewDriftProfile() scenario.Profile {
	return scenario.Profile{Name: "skew-drift", Phases: []scenario.Phase{
		{Name: "uniform", Txns: 50},
		{Name: "hot", Txns: 70, RampTxns: 20, Skew: 0.9, WorkingSet: 0.5},
	}}
}

func burstProfile() scenario.Profile {
	return scenario.Profile{Name: "burst", Phases: []scenario.Phase{
		{Name: "calm", Txns: 40},
		{Name: "spike", Txns: 50, RampTxns: 10, Mix: &scenario.Mix{Update: 2, Read: 2, Scan: 1}, Skew: 0.8},
		{Name: "recover", Txns: 30, Mix: &scenario.Mix{Update: 3, Read: 1}},
	}}
}

func steadyProfile(txns uint64) scenario.Profile {
	return scenario.Profile{Name: "steady", Phases: []scenario.Phase{
		{Name: "all", Txns: txns},
	}}
}

func compileProfile(t testing.TB, p scenario.Profile) *scenario.Schedule {
	t.Helper()
	sched, err := p.Compile()
	if err != nil {
		t.Fatalf("compiling profile %q: %v", p.Name, err)
	}
	return sched
}

// scenarioProfiles is the profile matrix the identity and invariant suites
// sweep.
func scenarioProfiles() []scenario.Profile {
	return []scenario.Profile{
		mixFlipProfile(),
		skewDriftProfile(),
		burstProfile(),
		steadyProfile(120),
	}
}

// checkSegment asserts every conservation identity a phase segment promises
// on its own: the decompositions, the hierarchy flow bounds, and the
// [0,1] ratios all hold inside each phase window, not just cumulatively.
// Segments are differences of monotone counters collected at quiesced
// commit boundaries, so each identity that holds per event holds per
// window.
func checkSegment(t *testing.T, cfg core.Config, seg *stats.RunResult) {
	t.Helper()
	if seg.Txns == 0 {
		t.Fatalf("phase %q committed no transactions", seg.Name)
	}
	if got := seg.Miss.Local() + seg.Miss.RemoteClean() + seg.Miss.RemoteDirty(); got != seg.Miss.Total() {
		t.Errorf("phase %q: miss categories %d != total %d", seg.Name, got, seg.Miss.Total())
	}
	if got := seg.Miss.ITotal() + seg.Miss.DTotal(); got != seg.Miss.Total() {
		t.Errorf("phase %q: I+D misses %d != total %d", seg.Name, got, seg.Miss.Total())
	}
	b := seg.Breakdown
	if got := b.Busy + b.L2Hit + b.Local + b.Remote + b.RemoteDirty; got != b.NonIdle() {
		t.Errorf("phase %q: breakdown components %d != NonIdle %d", seg.Name, got, b.NonIdle())
	}
	if b.Kernel > b.NonIdle() {
		t.Errorf("phase %q: kernel cycles %d exceed non-idle %d", seg.Name, b.Kernel, b.NonIdle())
	}
	if !cfg.OutOfOrder && b.Busy != b.Instructions {
		t.Errorf("phase %q: in-order busy cycles %d != instructions %d", seg.Name, b.Busy, b.Instructions)
	}
	if seg.L1IMisses > seg.L1IAccesses {
		t.Errorf("phase %q: L1I misses %d exceed accesses %d", seg.Name, seg.L1IMisses, seg.L1IAccesses)
	}
	if seg.L1DMisses > seg.L1DAccesses {
		t.Errorf("phase %q: L1D misses %d exceed accesses %d", seg.Name, seg.L1DMisses, seg.L1DAccesses)
	}
	if seg.L1IMisses+seg.L1DMisses > seg.L2Accesses {
		t.Errorf("phase %q: L1 misses %d exceed L2 accesses %d",
			seg.Name, seg.L1IMisses+seg.L1DMisses, seg.L2Accesses)
	}
	if seg.Miss.Total() > seg.L2Accesses {
		t.Errorf("phase %q: table misses %d exceed L2 accesses %d", seg.Name, seg.Miss.Total(), seg.L2Accesses)
	}
	racHits := seg.Miss.RACHitsI + seg.Miss.RACHitsD
	if racHits > seg.Miss.Local() {
		t.Errorf("phase %q: RAC hits %d exceed local misses %d", seg.Name, racHits, seg.Miss.Local())
	}
	if racHits > seg.RACHits {
		t.Errorf("phase %q: miss-table RAC hits %d exceed RAC hit counter %d", seg.Name, racHits, seg.RACHits)
	}
	if seg.RACHits > seg.RACProbes {
		t.Errorf("phase %q: RAC hits %d exceed probes %d", seg.Name, seg.RACHits, seg.RACProbes)
	}
	if cfg.RACBytes == 0 && seg.RACProbes != 0 {
		t.Errorf("phase %q: RAC probes %d on a machine without a RAC", seg.Name, seg.RACProbes)
	}
	if seg.WriteInvalOps > seg.Stores {
		t.Errorf("phase %q: invalidating writes %d exceed stores %d", seg.Name, seg.WriteInvalOps, seg.Stores)
	}
	if cfg.Processors == 1 {
		if seg.Miss.RemoteClean() != 0 || seg.Miss.RemoteDirty() != 0 {
			t.Errorf("phase %q: uniprocessor has remote misses: clean %d dirty %d",
				seg.Name, seg.Miss.RemoteClean(), seg.Miss.RemoteDirty())
		}
		if seg.Invalidations != 0 {
			t.Errorf("phase %q: uniprocessor has %d invalidations", seg.Name, seg.Invalidations)
		}
		if b.Remote != 0 || b.RemoteDirty != 0 {
			t.Errorf("phase %q: uniprocessor has remote stall cycles: %d + %d", seg.Name, b.Remote, b.RemoteDirty)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"L1I miss rate", seg.L1IMissRate},
		{"L1D miss rate", seg.L1DMissRate},
		{"kernel fraction", seg.KernelFraction},
		{"utilization", seg.Utilization},
	} {
		if f.v < 0 || f.v > 1 {
			t.Errorf("phase %q: %s %.4f outside [0,1]", seg.Name, f.name, f.v)
		}
	}
}

// checkSegmentsFold asserts the accounting identity of the segmentation
// itself: every counter summed across the phase segments equals the
// whole-run total exactly. Segments are consecutive differences of one
// cumulative stream, so any inexact fold means Sub dropped or double-counted
// a counter.
func checkSegmentsFold(t *testing.T, sr *ScenarioResult) {
	t.Helper()
	var sum stats.RunResult
	for i := range sr.Phases {
		seg := &sr.Phases[i].Result
		sum.Txns += seg.Txns
		sum.Breakdown.Add(&seg.Breakdown)
		sum.Miss.Add(&seg.Miss)
		sum.Invalidations += seg.Invalidations
		sum.Writebacks += seg.Writebacks
		sum.Stores += seg.Stores
		sum.WriteInvalOps += seg.WriteInvalOps
		sum.RACProbes += seg.RACProbes
		sum.RACHits += seg.RACHits
		sum.L1IAccesses += seg.L1IAccesses
		sum.L1IMisses += seg.L1IMisses
		sum.L1DAccesses += seg.L1DAccesses
		sum.L1DMisses += seg.L1DMisses
		sum.L2Accesses += seg.L2Accesses
		sum.IdleCycles += seg.IdleCycles
	}
	tot := &sr.Total
	if sum.Txns != tot.Txns {
		t.Errorf("segment txns sum %d != total %d", sum.Txns, tot.Txns)
	}
	if sum.Breakdown != tot.Breakdown {
		t.Errorf("segment breakdown sum %+v != total %+v", sum.Breakdown, tot.Breakdown)
	}
	if sum.Miss != tot.Miss {
		t.Errorf("segment miss-table sum %+v != total %+v", sum.Miss, tot.Miss)
	}
	counters := []struct {
		name      string
		got, want uint64
	}{
		{"invalidations", sum.Invalidations, tot.Invalidations},
		{"writebacks", sum.Writebacks, tot.Writebacks},
		{"stores", sum.Stores, tot.Stores},
		{"write-inval ops", sum.WriteInvalOps, tot.WriteInvalOps},
		{"RAC probes", sum.RACProbes, tot.RACProbes},
		{"RAC hits", sum.RACHits, tot.RACHits},
		{"L1I accesses", sum.L1IAccesses, tot.L1IAccesses},
		{"L1I misses", sum.L1IMisses, tot.L1IMisses},
		{"L1D accesses", sum.L1DAccesses, tot.L1DAccesses},
		{"L1D misses", sum.L1DMisses, tot.L1DMisses},
		{"L2 accesses", sum.L2Accesses, tot.L2Accesses},
		{"idle cycles", sum.IdleCycles, tot.IdleCycles},
	}
	for _, c := range counters {
		if c.got != c.want {
			t.Errorf("segment %s sum %d != total %d", c.name, c.got, c.want)
		}
	}
}

// TestScenarioConservationInvariants runs the burst profile — the one that
// exercises every phase knob — across the full representative configuration
// table and checks every segment-level conservation identity plus the exact
// fold of segments into the whole-run total.
func TestScenarioConservationInvariants(t *testing.T) {
	o := invariantOptions()
	o.Scenario = compileProfile(t, burstProfile())
	for _, cfg := range invariantConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			sr := o.RunScenario(cfg)
			if len(sr.Phases) != o.Scenario.NumPhases() {
				t.Fatalf("got %d segments, want %d", len(sr.Phases), o.Scenario.NumPhases())
			}
			for i := range sr.Phases {
				p := &sr.Phases[i]
				if p.Result.Name != o.Scenario.PhaseName(i) {
					t.Errorf("segment %d named %q, want %q", i, p.Result.Name, o.Scenario.PhaseName(i))
				}
				if want := p.Result.Txns; want != o.Scenario.PhaseTxns(i) {
					t.Errorf("segment %d has %d txns, want %d", i, want, o.Scenario.PhaseTxns(i))
				}
				var start uint64
				if i > 0 {
					start = o.Scenario.Boundary(i - 1)
				}
				if p.StartTxn != start {
					t.Errorf("segment %d starts at %d, want %d", i, p.StartTxn, start)
				}
				checkSegment(t, cfg, &p.Result)
			}
			checkSegmentsFold(t, &sr)
			if sr.Total.Txns != o.Scenario.TotalTxns() {
				t.Errorf("total txns %d != schedule total %d", sr.Total.Txns, o.Scenario.TotalTxns())
			}
		})
	}
}

// TestScenarioProfileMatrixInvariants runs every reference profile on one
// multiprocessor and one uniprocessor shape: the segment identities are
// properties of the segmentation, not of one profile's draw pattern.
func TestScenarioProfileMatrixInvariants(t *testing.T) {
	cfgs := []core.Config{
		core.BaseConfig(1, 8*core.MB, 1),
		core.FullConfig(8, 2*core.MB, 8),
	}
	for _, p := range scenarioProfiles() {
		for _, cfg := range cfgs {
			p, cfg := p, cfg
			t.Run(p.Name+"/"+cfg.Name, func(t *testing.T) {
				t.Parallel()
				o := invariantOptions()
				o.Scenario = compileProfile(t, p)
				sr := o.RunScenario(cfg)
				for i := range sr.Phases {
					checkSegment(t, cfg, &sr.Phases[i].Result)
				}
				checkSegmentsFold(t, &sr)
			})
		}
	}
}
