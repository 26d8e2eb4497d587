package experiments

import (
	"testing"

	"oltpsim/internal/core"
)

// testOptions is deliberately small: these tests check the *direction* of
// every headline claim of the paper on the scaled-down database; the
// benchmarks regenerate the full figures.
func testOptions() Options {
	o := QuickOptions()
	o.WarmupTxns = 250
	o.MeasureTxns = 500
	return o
}

// Claim: a 2 MB 4-way cache has fewer misses than an 8 MB direct-mapped
// cache (the paper's central associativity result, Sections 1/3).
func TestAssociativityBeatsCapacity(t *testing.T) {
	o := testOptions()
	dm8 := o.Run(core.BaseConfig(1, 8*core.MB, 1))
	a2 := o.Run(core.BaseConfig(1, 2*core.MB, 4))
	if a2.MissesPerTxn() >= dm8.MissesPerTxn() {
		t.Fatalf("2M 4-way misses %.1f not below 8M direct-mapped %.1f",
			a2.MissesPerTxn(), dm8.MissesPerTxn())
	}
}

// Claim: the miss reduction from 1M 1-way to 8M 4-way is large (the paper
// reports ~50x at full scale; direction and order of magnitude here).
func TestMissReductionAcrossSweep(t *testing.T) {
	o := testOptions()
	// The residual-miss floor needs real steady state: warm longer than the
	// other direction-only tests.
	o.WarmupTxns = 2000
	small := o.Run(core.BaseConfig(1, 1*core.MB, 1))
	big := o.Run(core.BaseConfig(1, 8*core.MB, 4))
	ratio := small.MissesPerTxn() / big.MissesPerTxn()
	if ratio < 6 {
		t.Fatalf("1M1w/8M4w miss ratio %.1f; want a large reduction", ratio)
	}
}

// Claim: integrating the L2 improves uniprocessor performance substantially
// (paper: ~1.4x), and integrating the MC adds essentially nothing on top
// (paper Section 4).
func TestUniprocessorIntegrationLadder(t *testing.T) {
	o := testOptions()
	base := o.Run(core.BaseConfig(1, 8*core.MB, 1))
	l2 := o.Run(core.IntegratedL2Config(1, 2*core.MB, 8, core.OnChipSRAM))
	l2mc := o.Run(core.L2MCConfig(1, 2*core.MB, 8))
	gain := base.CyclesPerTxn() / l2.CyclesPerTxn()
	if gain < 1.2 {
		t.Fatalf("uniprocessor L2 integration gain %.2f; paper reports ~1.4x", gain)
	}
	mcGain := l2.CyclesPerTxn() / l2mc.CyclesPerTxn()
	if mcGain < 0.97 || mcGain > 1.1 {
		t.Fatalf("MC integration changed uniprocessor time by %.2fx; paper: virtually nothing", mcGain)
	}
}

// Claim: full integration gains ~1.4x on the multiprocessor, about half from
// the L2 and half from the dirty-remote latency, and the split L2+MC design
// performs like L2-only (paper Sections 4-5).
func TestMultiprocessorIntegrationLadder(t *testing.T) {
	o := testOptions()
	base := o.Run(core.BaseConfig(8, 8*core.MB, 1))
	l2 := o.Run(core.IntegratedL2Config(8, 2*core.MB, 8, core.OnChipSRAM))
	l2mc := o.Run(core.L2MCConfig(8, 2*core.MB, 8))
	full := o.Run(core.FullConfig(8, 2*core.MB, 8))

	fullGain := base.CyclesPerTxn() / full.CyclesPerTxn()
	if fullGain < 1.25 {
		t.Fatalf("full integration gain %.2f; paper reports ~1.43x", fullGain)
	}
	l2Gain := base.CyclesPerTxn() / l2.CyclesPerTxn()
	if l2Gain < 1.05 {
		t.Fatalf("L2 integration gain %.2f; paper reports ~1.2x", l2Gain)
	}
	restGain := l2.CyclesPerTxn() / full.CyclesPerTxn()
	if restGain < 1.05 {
		t.Fatalf("MC+CC/NR integration gain %.2f; paper reports ~1.2x", restGain)
	}
	split := l2mc.CyclesPerTxn() / l2.CyclesPerTxn()
	if split < 0.95 || split > 1.10 {
		t.Fatalf("L2+MC vs L2 ratio %.2f; paper: virtually identical", split)
	}
}

// Claim: multiprocessor OLTP is sensitive to remote latencies — the
// Conservative Base is clearly slower than Base (paper Section 3) — and the
// full-vs-conservative gain reaches ~1.5x (Section 5).
func TestConservativeSensitivity(t *testing.T) {
	o := testOptions()
	cons := o.Run(core.ConservativeConfig(8, 8*core.MB, 4))
	base := o.Run(core.BaseConfig(8, 8*core.MB, 4))
	if cons.CyclesPerTxn() <= base.CyclesPerTxn() {
		t.Fatal("conservative base not slower than base on the multiprocessor")
	}
	full := o.Run(core.FullConfig(8, 2*core.MB, 8))
	if gain := cons.CyclesPerTxn() / full.CyclesPerTxn(); gain < 1.35 {
		t.Fatalf("full vs conservative gain %.2f; paper reports ~1.56x", gain)
	}
}

// Claim: most remaining multiprocessor misses are communication, with the
// majority dirty 3-hop, and better caching *increases* the absolute number
// of 3-hop misses (paper Section 3).
func TestThreeHopBehaviour(t *testing.T) {
	o := testOptions()
	small := o.Run(core.BaseConfig(8, 1*core.MB, 1))
	big := o.Run(core.BaseConfig(8, 8*core.MB, 4))
	if big.Miss.RemoteDirty() <= big.Miss.RemoteClean() {
		t.Fatalf("8M4w: 3-hop %d not dominating 2-hop %d",
			big.Miss.RemoteDirty(), big.Miss.RemoteClean())
	}
	dirtySmall := float64(small.Miss.RemoteDirty()) / float64(small.Txns)
	dirtyBig := float64(big.Miss.RemoteDirty()) / float64(big.Txns)
	if dirtyBig <= dirtySmall*0.95 {
		t.Fatalf("3-hop misses per txn fell from %.1f to %.1f with bigger caches; paper says they increase",
			dirtySmall, dirtyBig)
	}
	if small.Miss.RemoteClean() <= big.Miss.RemoteClean() {
		t.Fatal("2-hop misses did not decrease with bigger caches")
	}
}

// Claim: the RAC changes the miss mix (remote -> local) without changing the
// total, increases 3-hop misses, and instruction replication makes
// instruction misses local (paper Section 6 / Figure 11).
func TestRACMissMix(t *testing.T) {
	o := testOptions()
	mk := func(withRAC, repl bool) core.Config {
		cfg := core.FullConfig(8, 1*core.MB, 4)
		if withRAC {
			cfg.RACBytes = 8 * core.MB
		}
		cfg.CodeReplication = repl
		return cfg
	}
	noRAC := o.Run(mk(false, false))
	withRAC := o.Run(mk(true, false))

	tolerance := 0.12 * noRAC.MissesPerTxn()
	if diff := withRAC.MissesPerTxn() - noRAC.MissesPerTxn(); diff > tolerance || diff < -tolerance {
		t.Fatalf("RAC changed total misses: %.1f vs %.1f", withRAC.MissesPerTxn(), noRAC.MissesPerTxn())
	}
	if withRAC.Miss.Local() <= noRAC.Miss.Local() {
		t.Fatal("RAC did not convert remote misses to local")
	}
	if withRAC.Miss.RemoteClean() >= noRAC.Miss.RemoteClean() {
		t.Fatal("RAC did not reduce 2-hop misses")
	}
	if withRAC.Miss.RemoteDirty() <= noRAC.Miss.RemoteDirty() {
		t.Fatal("RAC did not increase 3-hop misses (the paper's key RAC result)")
	}
	if withRAC.RACHitRate() <= 0.05 {
		t.Fatalf("RAC hit rate %.2f degenerate", withRAC.RACHitRate())
	}

	// Replication moves instruction misses local.
	noRACRepl := o.Run(mk(false, true))
	if noRACRepl.Miss.I[1]+noRACRepl.Miss.I[2]+noRACRepl.Miss.I[3] >= noRAC.Miss.I[1]+noRAC.Miss.I[2]+noRAC.Miss.I[3] {
		t.Fatal("replication did not reduce remote instruction misses")
	}
}

// Claim: with a 2 MB 8-way L2 the RAC adds nothing (paper Figure 12: hit
// rate < 10%, performance unchanged).
func TestRACUselessWithBigL2(t *testing.T) {
	o := testOptions()
	mk := func(withRAC bool) core.Config {
		cfg := core.FullConfig(8, 2*core.MB, 8)
		cfg.CodeReplication = true
		if withRAC {
			cfg.RACBytes = 8 * core.MB
		}
		return cfg
	}
	noRAC := o.Run(mk(false))
	withRAC := o.Run(mk(true))
	ratio := withRAC.CyclesPerTxn() / noRAC.CyclesPerTxn()
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("RAC with 2M L2 changed performance by %.2fx; paper: almost the same", ratio)
	}
}

// Claim: out-of-order execution gains ~1.4x uni / ~1.3x MP, and the relative
// integration gains are virtually identical to in-order (paper Section 7).
func TestOOORelativeGains(t *testing.T) {
	o := testOptions()
	ooo := func(cfg core.Config) core.Config {
		cfg.OutOfOrder = true
		return cfg
	}
	baseIO := o.Run(core.BaseConfig(1, 8*core.MB, 1))
	baseOOO := o.Run(ooo(core.BaseConfig(1, 8*core.MB, 1)))
	gain := baseIO.CyclesPerTxn() / baseOOO.CyclesPerTxn()
	if gain < 1.15 || gain > 1.9 {
		t.Fatalf("uniprocessor OOO gain %.2f; paper reports ~1.4x", gain)
	}

	l2IO := o.Run(core.IntegratedL2Config(1, 2*core.MB, 8, core.OnChipSRAM))
	l2OOO := o.Run(ooo(core.IntegratedL2Config(1, 2*core.MB, 8, core.OnChipSRAM)))
	relIO := baseIO.CyclesPerTxn() / l2IO.CyclesPerTxn()
	relOOO := baseOOO.CyclesPerTxn() / l2OOO.CyclesPerTxn()
	if diff := relOOO/relIO - 1; diff > 0.15 || diff < -0.15 {
		t.Fatalf("relative integration gains differ: in-order %.2f vs OOO %.2f", relIO, relOOO)
	}
}

// Claim: kernel activity is a significant component (~25% in the paper) and
// processor utilization is low (~17-30%).
func TestWorkloadComposition(t *testing.T) {
	o := testOptions()
	res := o.Run(core.BaseConfig(1, 8*core.MB, 1))
	if res.KernelFraction < 0.10 || res.KernelFraction > 0.45 {
		t.Fatalf("kernel fraction %.2f outside plausible band", res.KernelFraction)
	}
	mp := o.Run(core.BaseConfig(8, 8*core.MB, 1))
	if mp.Utilization < 0.10 || mp.Utilization > 0.45 {
		t.Fatalf("MP utilization %.2f; paper reports ~17-30%%", mp.Utilization)
	}
}

// The figure plumbing itself.
func TestFigureNormalization(t *testing.T) {
	o := testOptions()
	fig := RunFigures(o, []FigureSpec{{ID: "t", Title: "normalization check", Bars: []core.Config{
		core.BaseConfig(1, 1*core.MB, 1),
		core.BaseConfig(1, 8*core.MB, 4),
	}}})[0]
	if fig.NormExec(0) != 100 || fig.NormMisses(0) != 100 {
		t.Fatal("baseline not normalized to 100")
	}
	if fig.NormExec(1) >= 100 || fig.NormMisses(1) >= 100 {
		t.Fatal("better configuration not below baseline")
	}
	if fig.RenderExec() == "" || fig.RenderMisses() == "" || fig.RenderDetail() == "" {
		t.Fatal("rendering empty")
	}
}
