package experiments

import (
	"fmt"
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/oltp"
	"oltpsim/internal/stats"
)

// invariantOptions is the shortened protocol the conservation suite runs
// under: long enough that every counter class is exercised (all runs commit
// transactions, take remote misses on MP configs, and trigger upgrades),
// short enough that the whole table stays in test-suite budget.
func invariantOptions() Options {
	o := QuickOptions()
	o.WarmupTxns, o.MeasureTxns = 60, 120
	return o
}

// invariantConfigs is the table: one representative of every machine shape
// the figures sweep — off-chip and integrated L2s, uni- and multiprocessor,
// victim buffers, RAC, code replication, CMP, and out-of-order
// cores — so a conservation bug in any path fails here, not in a figure.
func invariantConfigs() []core.Config {
	cfgs := []core.Config{
		core.BaseConfig(1, 8*core.MB, 1),
		core.BaseConfig(8, 8*core.MB, 1),
		core.ConservativeConfig(8, 8*core.MB, 4),
		core.IntegratedL2Config(1, 2*core.MB, 8, core.OnChipSRAM),
		core.IntegratedL2Config(8, 2*core.MB, 8, core.OnChipSRAM),
		core.IntegratedL2Config(8, 8*core.MB, 8, core.OnChipDRAM),
		core.L2MCConfig(8, 2*core.MB, 8),
		core.FullConfig(8, 2*core.MB, 8),
		racConfig(1*core.MB, 4, true, false, "RAC NoRepl"),
		racConfig(1*core.MB, 4, true, true, "RAC Repl"),
	}
	vb := core.IntegratedL2Config(1, 2*core.MB, 1, core.OnChipSRAM)
	vb.VictimBuffers = 8
	vb.Name = "2M1w +VB"
	cfgs = append(cfgs, vb)

	cmp := core.FullConfig(8, 2*core.MB, 8)
	cmp.CoresPerChip = 4
	cmp.Name = "All 2x4 CMP"
	cfgs = append(cfgs, cmp)

	ooo := core.BaseConfig(8, 8*core.MB, 1)
	ooo.OutOfOrder = true
	ooo.Name = "Base OOO"
	cfgs = append(cfgs, ooo)
	return cfgs
}

// checkConservation asserts every cross-counter identity the stats layer
// promises. sys is the system the result was collected from (still holding
// its post-measurement cache and directory counters).
func checkConservation(t *testing.T, cfg core.Config, sys *core.System, res stats.RunResult) {
	t.Helper()

	// The run did real work.
	if res.Txns == 0 {
		t.Fatal("no transactions committed during measurement")
	}
	if res.Breakdown.NonIdle() == 0 || res.L2Accesses == 0 || res.Miss.Total() == 0 {
		t.Fatalf("degenerate run: nonIdle=%d l2acc=%d misses=%d",
			res.Breakdown.NonIdle(), res.L2Accesses, res.Miss.Total())
	}

	// Miss-category decomposition: the figure renderers stack
	// local + 2-hop + 3-hop segments; they must reassemble to the total.
	if got := res.Miss.Local() + res.Miss.RemoteClean() + res.Miss.RemoteDirty(); got != res.Miss.Total() {
		t.Errorf("miss categories %d (local %d + clean %d + dirty %d) != total %d",
			got, res.Miss.Local(), res.Miss.RemoteClean(), res.Miss.RemoteDirty(), res.Miss.Total())
	}
	// Instruction/data split is the other decomposition of the same total.
	if got := res.Miss.ITotal() + res.Miss.DTotal(); got != res.Miss.Total() {
		t.Errorf("I misses %d + D misses %d != total %d", res.Miss.ITotal(), res.Miss.DTotal(), res.Miss.Total())
	}

	// Execution-time breakdown: the stacked-bar components must sum to the
	// non-idle total, and attributed subsets cannot exceed it.
	b := res.Breakdown
	if got := b.Busy + b.L2Hit + b.Local + b.Remote + b.RemoteDirty; got != b.NonIdle() {
		t.Errorf("breakdown components %d != NonIdle %d", got, b.NonIdle())
	}
	if b.Kernel > b.NonIdle() {
		t.Errorf("kernel cycles %d exceed non-idle cycles %d", b.Kernel, b.NonIdle())
	}
	if !cfg.OutOfOrder && b.Busy != b.Instructions {
		// In-order cores retire one instruction per busy cycle by definition.
		t.Errorf("in-order busy cycles %d != instructions %d", b.Busy, b.Instructions)
	}

	// Miss-flow conservation through the hierarchy. Every L1 miss issues an
	// L2 access (inclusive hierarchy), and L1-Shared writes fall through for
	// permission without an L1 miss, so L1 misses <= L2 accesses. Every
	// counted miss left the L2 tags, so table misses <= L2 tag misses
	// (victim-buffer hits are tag misses the table deliberately skips).
	cores := cfg.CoresPerChip
	var l1Misses, l2Accesses, l2Misses uint64
	for cpu := 0; cpu < cfg.Processors; cpu++ {
		l1Misses += sys.L1I(cpu).Misses() + sys.L1D(cpu).Misses()
		if cpu%cores == 0 {
			l2Accesses += sys.L2(cpu).Accesses
			l2Misses += sys.L2(cpu).Misses()
		}
	}
	if l2Accesses != res.L2Accesses {
		t.Errorf("summed L2 accesses %d != collected %d", l2Accesses, res.L2Accesses)
	}
	if l1Misses > l2Accesses {
		t.Errorf("L1 misses %d exceed L2 accesses %d", l1Misses, l2Accesses)
	}
	if res.Miss.Total() > l2Misses {
		t.Errorf("miss table total %d exceeds L2 tag misses %d", res.Miss.Total(), l2Misses)
	}

	// RAC accounting: every table-counted RAC hit is a local miss and a
	// subset of the RAC's own hit counter (write-upgrade RAC hits are
	// counted as upgrades instead).
	racHits := res.Miss.RACHitsI + res.Miss.RACHitsD
	if racHits > res.Miss.Local() {
		t.Errorf("RAC hits %d exceed local misses %d", racHits, res.Miss.Local())
	}
	if racHits > res.RACHits {
		t.Errorf("miss-table RAC hits %d exceed RAC hit counter %d", racHits, res.RACHits)
	}
	if res.RACHits > res.RACProbes {
		t.Errorf("RAC hits %d exceed probes %d", res.RACHits, res.RACProbes)
	}
	if cfg.RACBytes == 0 && res.RACProbes != 0 {
		t.Errorf("RAC probes %d on a machine without a RAC", res.RACProbes)
	}

	// Uniprocessor machines have no one to communicate with: every remote
	// category, invalidation, and remote stall cycle must be zero.
	if cfg.Processors == 1 {
		if res.Miss.RemoteClean() != 0 || res.Miss.RemoteDirty() != 0 {
			t.Errorf("uniprocessor has remote misses: clean %d dirty %d",
				res.Miss.RemoteClean(), res.Miss.RemoteDirty())
		}
		if res.Invalidations != 0 {
			t.Errorf("uniprocessor has %d invalidations", res.Invalidations)
		}
		if b.Remote != 0 || b.RemoteDirty != 0 {
			t.Errorf("uniprocessor has remote stall cycles: %d + %d", b.Remote, b.RemoteDirty)
		}
	} else {
		// Multiprocessor OLTP always communicates (paper Section 4: the
		// majority of Base misses are dirty remote).
		if res.Miss.RemoteClean()+res.Miss.RemoteDirty() == 0 {
			t.Error("multiprocessor run saw no remote misses")
		}
	}

	// Directory cross-checks: invalidations were copied verbatim from the
	// directory, and a write-invalidate protocol cannot invalidate more
	// often than stores demand.
	if d := sys.Directory(); d != nil {
		if res.Invalidations != d.Stats.Invalidations {
			t.Errorf("collected invalidations %d != directory's %d", res.Invalidations, d.Stats.Invalidations)
		}
	}
	if res.WriteInvalOps > res.Stores {
		t.Errorf("invalidating writes %d exceed stores %d", res.WriteInvalOps, res.Stores)
	}

	// Derived ratios live in [0, 1].
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"L1I miss rate", res.L1IMissRate},
		{"L1D miss rate", res.L1DMissRate},
		{"kernel fraction", res.KernelFraction},
		{"utilization", res.Utilization},
		{"RAC hit rate", res.RACHitRate()},
	} {
		if f.v < 0 || f.v > 1 {
			t.Errorf("%s %.4f outside [0,1]", f.name, f.v)
		}
	}
}

// TestConservationInvariants runs the representative configuration table and
// checks every conservation identity on each result. This is the contract
// the hot-path optimizations must preserve: the counters are produced by the
// flattened Step/access path, so any double-count or dropped count shows up
// as a broken identity here.
func TestConservationInvariants(t *testing.T) {
	o := invariantOptions()
	for _, cfg := range invariantConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			h := oltp.MustNewHarness(o.Params(cfg))
			sys := core.MustNewSystem(cfg, h)
			res := sys.Run(o.WarmupTxns, o.MeasureTxns)
			res.Name = cfg.Name
			checkConservation(t, cfg, sys, res)
		})
	}
}

// TestConservationAcrossSeeds reruns a cheap uni and an 8-way config under
// three different seeds: the identities are properties of the accounting,
// not of one lucky reference stream.
func TestConservationAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is the long form of TestConservationInvariants")
	}
	o := invariantOptions()
	cfgs := []core.Config{
		core.BaseConfig(1, 8*core.MB, 1),
		core.FullConfig(8, 2*core.MB, 8),
	}
	for _, seed := range []uint64{0x5eed1, 0x5eed2, 0x5eed3} {
		for _, cfg := range cfgs {
			seed, cfg := seed, cfg
			t.Run(fmt.Sprintf("%s/seed%x", cfg.Name, seed), func(t *testing.T) {
				t.Parallel()
				os := o
				os.Seed = seed
				h := oltp.MustNewHarness(os.Params(cfg))
				sys := core.MustNewSystem(cfg, h)
				res := sys.Run(os.WarmupTxns, os.MeasureTxns)
				res.Name = cfg.Name
				checkConservation(t, cfg, sys, res)
			})
		}
	}
}
