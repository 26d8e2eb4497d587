package experiments

import (
	"reflect"
	"testing"

	"oltpsim/internal/core"
)

// parallelTestOptions is small enough to run a figure several times in a
// test, but long enough that any cross-goroutine contamination of simulator
// state would have room to show up.
func parallelTestOptions() Options {
	o := QuickOptions()
	o.WarmupTxns = 80
	o.MeasureTxns = 200
	return o
}

// TestParallelMatchesSerial is the determinism harness: a figure run through
// the worker pool must be indistinguishable from the serial run — identical
// stats.RunResult per bar and byte-identical rendered tables. That holds for
// one figure, for figures selected together into one pool, and for the
// timeline ladder. This also guards against accidental shared mutable state
// (package-level maps, shared RNGs) creeping in between System instances.
func TestParallelMatchesSerial(t *testing.T) {
	serial := func() Options {
		o := parallelTestOptions()
		o.Workers = 1
		return o
	}
	par := func() Options {
		o := parallelTestOptions()
		o.Workers = 4
		return o
	}
	figs := map[string]func(Options) Figure{
		"Fig10Uni": Fig10Uni,
		"Fig11":    Fig11,
	}
	for name, run := range figs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sameFigure(t, run(serial()), run(par()))
		})
	}
	t.Run("Fig10Uni+Fig11", func(t *testing.T) {
		t.Parallel()
		var specs []FigureSpec
		for _, s := range PaperFigures() {
			if s.ID == "Figure 10 (uni)" || s.ID == "Figure 11" {
				specs = append(specs, s)
			}
		}
		got := RunFigures(par(), specs)
		if len(got) != 2 {
			t.Fatalf("RunFigures returned %d figures, want 2", len(got))
		}
		sameFigure(t, Fig10Uni(serial()), got[0])
		sameFigure(t, Fig11(serial()), got[1])
	})
	t.Run("TimelineLadder", func(t *testing.T) {
		t.Parallel()
		o := par()
		o.Scenario = compileProfile(t, burstProfile())
		got := RunTimelineLadder(o, 2, true)
		cfgs := integrationLadder(2, true)
		if len(got.Results) != len(cfgs) {
			t.Fatalf("ladder has %d results, want %d", len(got.Results), len(cfgs))
		}
		for i, cfg := range cfgs {
			if want := o.RunScenario(cfg); !reflect.DeepEqual(got.Results[i], want) {
				t.Errorf("ladder result %d (%s) differs from its own RunScenario:\npool:   %+v\nserial: %+v",
					i, cfg.Name, got.Results[i], want)
			}
		}
	})
}

// sameFigure fails the test unless the pooled run of a figure matches the
// serial one bar for bar and table for table.
func sameFigure(t *testing.T, serial, pooled Figure) {
	t.Helper()
	if serial.ID != pooled.ID || serial.BaselineIdx != pooled.BaselineIdx {
		t.Fatalf("figure %s (baseline %d) came back as %s (baseline %d)",
			serial.ID, serial.BaselineIdx, pooled.ID, pooled.BaselineIdx)
	}
	if len(serial.Bars) != len(pooled.Bars) {
		t.Fatalf("%s: bar count differs: serial %d, parallel %d", serial.ID, len(serial.Bars), len(pooled.Bars))
	}
	for i := range serial.Bars {
		if !reflect.DeepEqual(serial.Bars[i], pooled.Bars[i]) {
			t.Errorf("%s: bar %d (%s) differs between serial and parallel runs:\nserial:   %+v\nparallel: %+v",
				serial.ID, i, serial.Bars[i].Name, serial.Bars[i], pooled.Bars[i])
		}
	}
	if serial.RenderExec() != pooled.RenderExec() {
		t.Errorf("%s: RenderExec output differs between serial and parallel runs", serial.ID)
	}
	if serial.RenderMisses() != pooled.RenderMisses() {
		t.Errorf("%s: RenderMisses output differs between serial and parallel runs", serial.ID)
	}
}

// TestRunManyOrderAndDefaults checks that RunMany preserves input order
// regardless of completion order, and that the Workers defaulting rules
// (0 -> GOMAXPROCS, 1 -> serial, n -> n, n > len(cfgs)) all produce the
// same results as the serial reference.
func TestRunManyOrderAndDefaults(t *testing.T) {
	o := parallelTestOptions()
	cfgs := offChipSweep(1)[:4] // heterogeneous runtimes: 1M..8M caches
	var want []string
	for _, c := range cfgs {
		want = append(want, c.Name)
	}

	o.Workers = 1
	ref := o.RunMany(cfgs)

	for _, workers := range []int{0, 2, 8} {
		o.Workers = workers
		res := o.RunMany(cfgs)
		if len(res) != len(cfgs) {
			t.Fatalf("Workers=%d: got %d results, want %d", workers, len(res), len(cfgs))
		}
		var names []string
		for i := range res {
			names = append(names, res[i].Name)
		}
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("Workers=%d: result order %v, want %v", workers, names, want)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("Workers=%d: results diverge from the serial reference", workers)
		}
	}
}

// TestRunManySharesMachines: configurations that build the same machine
// run once, and every one of them still gets the result a separate Run
// gives it, under its own name. The list holds one machine under two
// names, one RAC machine under two names, and a machine that differs from
// it only in RAC size.
func TestRunManySharesMachines(t *testing.T) {
	o := parallelTestOptions()
	o.Workers = 2
	base := core.BaseConfig(1, 1*core.MB, 1)
	rac := func(size int64, name string) core.Config {
		cfg := core.FullConfig(2, 1*core.MB, 4)
		cfg.RACBytes = size
		cfg.Name = name
		return cfg
	}
	cfgs := []core.Config{
		label(base, "base A"),
		rac(1*core.MB, "RAC A"),
		label(base, "base B"),
		rac(1*core.MB, "RAC B"),
		rac(2*core.MB, "RAC 2M"),
	}
	got := o.RunMany(cfgs)
	if len(got) != len(cfgs) {
		t.Fatalf("RunMany returned %d results for %d configurations", len(got), len(cfgs))
	}
	for i, cfg := range cfgs {
		if want := o.Run(cfg); !reflect.DeepEqual(got[i], want) {
			t.Errorf("result %d (%s) differs from its own Run:\nRunMany: %+v\nRun:     %+v", i, cfg.Name, got[i], want)
		}
	}
	if got[1].Name != "RAC A" || got[3].Name != "RAC B" || reflect.DeepEqual(got[3], got[4]) {
		t.Errorf("shared results not kept apart: %q %q, and RAC 2M equal to RAC B: %t",
			got[1].Name, got[3].Name, reflect.DeepEqual(got[3], got[4]))
	}
}

// TestPaperFiguresShareMachines pins how many distinct machines the figure
// table simulates, so an edit that splits a shared baseline is noticed.
func TestPaperFiguresShareMachines(t *testing.T) {
	bars, machines := 0, map[string]bool{}
	for _, s := range PaperFigures() {
		for _, cfg := range s.Bars {
			bars++
			machines[cfg.Fingerprint()] = true
		}
	}
	if bars != 57 || len(machines) != 47 {
		t.Errorf("PaperFigures has %d bars on %d distinct machines, want 57 on 47", bars, len(machines))
	}
}
