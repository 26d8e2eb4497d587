package experiments

import "oltpsim/internal/core"

// FigureSpec is one entry of the paper figure table: the bars of one
// reproduced figure and how the paper presents them.
type FigureSpec struct {
	// Fig is the figure number cmd/figures selects with -fig ("5", "10");
	// the two halves of Figures 10, 12 and 13 share theirs.
	Fig string
	// ID and Title label the figure ("Figure 10 (8p)", ...).
	ID, Title string
	// Bars are the configurations, in presentation order.
	Bars []core.Config
	// BaselineIdx is the bar the figure normalizes to.
	BaselineIdx int
	// Misses reports whether the paper shows the figure's L2 miss graph.
	Misses bool
}

// PaperFigures returns the table of reproduced figures, Figures 5 to 13, in
// the paper's presentation order.
func PaperFigures() []FigureSpec {
	return []FigureSpec{
		{"5", "Figure 5", "OLTP with off-chip L2, uniprocessor", offChipSweep(1), 0, true},
		{"6", "Figure 6", "OLTP with off-chip L2, 8 processors", offChipSweep(8), 0, true},
		{"7", "Figure 7", "Impact of on-chip L2, uniprocessor", onChipSweep(1), 0, true},
		{"8", "Figure 8", "Impact of on-chip L2, 8 processors", onChipSweep(8), 0, true},
		{"10", "Figure 10 (uni)", "Successive integration, uniprocessor", integrationLadder(1, false), 0, false},
		{"10", "Figure 10 (8p)", "Successive integration, 8 processors", integrationLadder(8, true), 0, false},
		{"11", "Figure 11", "RAC impact on L2 miss mix (1M4w L2, 8p)", []core.Config{
			racConfig(1*core.MB, 4, false, false, "NoRAC NoRepl"),
			racConfig(1*core.MB, 4, true, false, "RAC NoRepl"),
			racConfig(1*core.MB, 4, false, true, "NoRAC Repl"),
			racConfig(1*core.MB, 4, true, true, "RAC Repl"),
		}, 0, true},
		// The 1.25M L2 is what the RAC's tag space could have bought instead.
		{"12", "Figure 12 (1M)", "RAC performance, 1M4w L2 + repl (8p)", []core.Config{
			racConfig(1*core.MB, 4, false, true, "NoRAC 1M4w"),
			racConfig(1*core.MB, 4, true, true, "RAC 1M4w"),
			racConfig(5*core.MB/4, 4, false, true, "NoRAC 1.25M"),
		}, 0, false},
		{"12", "Figure 12 (2M)", "RAC performance, 2M8w L2 + repl (8p)", []core.Config{
			racConfig(2*core.MB, 8, false, true, "NoRAC 2M8w"),
			racConfig(2*core.MB, 8, true, true, "RAC 2M8w"),
		}, 0, false},
		// Figure 13 normalizes to the OOO Base (bar 1), as in the paper.
		{"13", "Figure 13 (uni)", "Out-of-order processors, uniprocessor", oooLadder(1, false), 1, false},
		{"13", "Figure 13 (8p)", "Out-of-order processors, 8 processors", oooLadder(8, true), 1, false},
	}
}

// RunFigures runs the given figures as one sweep: a single RunMany call over
// their concatenated bars, so the worker pool never drains at a figure
// boundary. It returns one Figure per spec, in the order given.
func RunFigures(o Options, specs []FigureSpec) []Figure {
	var cfgs []core.Config
	for _, s := range specs {
		cfgs = append(cfgs, s.Bars...)
	}
	results := o.RunMany(cfgs)
	figs := make([]Figure, len(specs))
	for i, s := range specs {
		n := len(s.Bars)
		figs[i] = Figure{ID: s.ID, Title: s.Title, Bars: results[:n:n], BaselineIdx: s.BaselineIdx}
		results = results[n:]
	}
	return figs
}

// runFigure runs the table entry with the given ID on its own.
func runFigure(o Options, id string) Figure {
	for _, s := range PaperFigures() {
		if s.ID == id {
			return RunFigures(o, []FigureSpec{s})[0]
		}
	}
	panic("experiments: no paper figure " + id)
}

// Fig05 reproduces "Behavior of OLTP with different off-chip L2
// configurations – uniprocessor".
func Fig05(o Options) Figure { return runFigure(o, "Figure 5") }

// Fig06 reproduces the same sweep for 8 processors.
func Fig06(o Options) Figure { return runFigure(o, "Figure 6") }

// Fig07 reproduces "Impact of on-chip L2 – uniprocessor".
func Fig07(o Options) Figure { return runFigure(o, "Figure 7") }

// Fig08 reproduces "Impact of on-chip L2 – 8 processors".
func Fig08(o Options) Figure { return runFigure(o, "Figure 8") }

// Fig10Uni reproduces the uniprocessor half of "Impact of integrating L2,
// memory controller, and coherence/network hardware".
func Fig10Uni(o Options) Figure { return runFigure(o, "Figure 10 (uni)") }

// Fig10MP reproduces the 8-processor half, including full integration.
func Fig10MP(o Options) Figure { return runFigure(o, "Figure 10 (8p)") }

// Fig11 reproduces "Impact of remote access cache on L2 misses, with and
// without instruction replication – 8 processors, 1MB 4-way L2".
func Fig11(o Options) Figure { return runFigure(o, "Figure 11") }

// Fig12Small reproduces the 1 MB trio of "Performance impact of remote
// access caches".
func Fig12Small(o Options) Figure { return runFigure(o, "Figure 12 (1M)") }

// Fig12Large reproduces the 2 MB pair.
func Fig12Large(o Options) Figure { return runFigure(o, "Figure 12 (2M)") }

// Fig13Uni reproduces the uniprocessor half of the out-of-order study.
func Fig13Uni(o Options) Figure { return runFigure(o, "Figure 13 (uni)") }

// Fig13MP reproduces the 8-processor half.
func Fig13MP(o Options) Figure { return runFigure(o, "Figure 13 (8p)") }

// offChipSweep builds the Figure 5/6 bar list: off-chip L2 from 1 to 8 MB,
// direct-mapped and 4-way, plus the Conservative Base 8 MB 4-way.
func offChipSweep(procs int) []core.Config {
	var cfgs []core.Config
	for _, assoc := range []int{1, 4} {
		for _, size := range []int64{1, 2, 4, 8} {
			cfgs = append(cfgs, core.BaseConfig(procs, size*core.MB, assoc))
		}
	}
	cfgs = append(cfgs, core.ConservativeConfig(procs, 8*core.MB, 4))
	return cfgs
}

// onChipSweep builds the Figure 7/8 bar list: the Base 8 MB direct-mapped
// off-chip L2 against integrated SRAM L2s of varying size/associativity and
// the 8 MB 8-way embedded-DRAM option.
func onChipSweep(procs int) []core.Config {
	return []core.Config{
		label(core.BaseConfig(procs, 8*core.MB, 1), "8M1w Base"),
		label(core.IntegratedL2Config(procs, 1*core.MB, 8, core.OnChipSRAM), "1M8w"),
		label(core.IntegratedL2Config(procs, 2*core.MB, 8, core.OnChipSRAM), "2M8w"),
		label(core.IntegratedL2Config(procs, 2*core.MB, 4, core.OnChipSRAM), "2M4w"),
		label(core.IntegratedL2Config(procs, 2*core.MB, 2, core.OnChipSRAM), "2M2w"),
		label(core.IntegratedL2Config(procs, 2*core.MB, 1, core.OnChipSRAM), "2M1w"),
		label(core.IntegratedL2Config(procs, 8*core.MB, 8, core.OnChipDRAM), "8M8w DRAM"),
	}
}

// integrationLadder builds the Figure 10 bars: Base (8M 1-way off-chip),
// then 2M8w with successively more integration.
func integrationLadder(procs int, full bool) []core.Config {
	cfgs := []core.Config{
		label(core.BaseConfig(procs, 8*core.MB, 1), "Base"),
		label(core.IntegratedL2Config(procs, 2*core.MB, 8, core.OnChipSRAM), "L2"),
		label(core.L2MCConfig(procs, 2*core.MB, 8), "L2+MC"),
	}
	if full {
		cfgs = append(cfgs, label(core.FullConfig(procs, 2*core.MB, 8), "All"))
	}
	return cfgs
}

// racConfig attaches the Section 6 RAC (8 MB 8-way, memory-backed) to a
// fully integrated machine.
func racConfig(l2Size int64, l2Assoc int, withRAC, repl bool, name string) core.Config {
	cfg := core.FullConfig(8, l2Size, l2Assoc)
	if withRAC {
		cfg.RACBytes = 8 * core.MB
	}
	cfg.CodeReplication = repl
	cfg.Name = name
	return cfg
}

// oooLadder builds the Figure 13 bars: the in-order Base for reference, then
// the integration ladder on out-of-order processors.
func oooLadder(procs int, full bool) []core.Config {
	mk := func(cfg core.Config, name string) core.Config {
		cfg.OutOfOrder = true
		cfg.Name = name
		return cfg
	}
	cfgs := []core.Config{
		label(core.BaseConfig(procs, 8*core.MB, 1), "Base InOrder"),
		mk(core.BaseConfig(procs, 8*core.MB, 1), "Base OOO"),
		mk(core.IntegratedL2Config(procs, 2*core.MB, 8, core.OnChipSRAM), "L2 OOO"),
		mk(core.L2MCConfig(procs, 2*core.MB, 8), "L2+MC OOO"),
	}
	if full {
		cfgs = append(cfgs, mk(core.FullConfig(procs, 2*core.MB, 8), "All OOO"))
	}
	return cfgs
}
