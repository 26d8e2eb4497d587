package core

import (
	"strings"
	"testing"

	"oltpsim/internal/cache"
)

// TestFigureThreeValues pins the latency model, the crossing model's
// derivation, to the seven published rows of the paper's Figure 3.
func TestFigureThreeValues(t *testing.T) {
	cases := []struct {
		name  string
		lvl   IntegrationLevel
		assoc int
		tech  L2Tech
		want  LatencyTable
	}{
		{"conservative", ConservativeBase, 4, OffChipSRAM,
			LatencyTable{L2Hit: 30, Local: 150, Remote: 225, RemoteDirty: 325, RemoteDirtyRAC: 375, RACHit: 150}},
		{"base-1way", Base, 1, OffChipSRAM,
			LatencyTable{L2Hit: 25, Local: 100, Remote: 175, RemoteDirty: 275, RemoteDirtyRAC: 325, RACHit: 100}},
		{"base-nway", Base, 4, OffChipSRAM,
			LatencyTable{L2Hit: 30, Local: 100, Remote: 175, RemoteDirty: 275, RemoteDirtyRAC: 325, RACHit: 100}},
		{"l2-sram", IntegratedL2, 8, OnChipSRAM,
			LatencyTable{L2Hit: 15, Local: 100, Remote: 175, RemoteDirty: 275, RemoteDirtyRAC: 325, RACHit: 100}},
		{"l2-dram", IntegratedL2, 8, OnChipDRAM,
			LatencyTable{L2Hit: 25, Local: 100, Remote: 175, RemoteDirty: 275, RemoteDirtyRAC: 325, RACHit: 100}},
		{"l2mc", IntegratedL2MC, 8, OnChipSRAM,
			LatencyTable{L2Hit: 15, Local: 75, Remote: 225, RemoteDirty: 275, RemoteDirtyRAC: 325, RACHit: 75}},
		{"full", FullIntegration, 8, OnChipSRAM,
			LatencyTable{L2Hit: 15, Local: 75, Remote: 150, RemoteDirty: 200, RemoteDirtyRAC: 250, RACHit: 75}},
	}
	for _, c := range cases {
		if got := Latencies(c.lvl, c.assoc, c.tech); got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestPaperRatios checks the ratios the paper states in Section 2.3: full
// integration reduces L2 hit latency 1.67x, local 1.33x, remote 1.17x and
// dirty 1.38x relative to Base.
func TestPaperRatios(t *testing.T) {
	base := Latencies(Base, 1, OffChipSRAM)
	full := Latencies(FullIntegration, 8, OnChipSRAM)
	check := func(name string, b, f uint32, want float64) {
		got := float64(b) / float64(f)
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("%s ratio %.2f, want %.2f", name, got, want)
		}
	}
	check("L2 hit", base.L2Hit, full.L2Hit, 1.67)
	check("local", base.Local, full.Local, 1.33)
	check("remote", base.Remote, full.Remote, 1.17)
	check("dirty", base.RemoteDirty, full.RemoteDirty, 1.38)
}

// TestSplitDesignAnomaly pins the Section 4 observation: integrating the MC
// without the CC makes 2-hop accesses slower than not integrating at all.
func TestSplitDesignAnomaly(t *testing.T) {
	base := Latencies(Base, 1, OffChipSRAM)
	split := Latencies(IntegratedL2MC, 8, OnChipSRAM)
	if split.Remote <= base.Remote {
		t.Fatalf("split remote %d not worse than base %d", split.Remote, base.Remote)
	}
	if split.Local >= base.Local {
		t.Fatal("split local not better than base")
	}
}

func TestFigureThreePresentation(t *testing.T) {
	rows := FigureThree()
	if len(rows) != 7 {
		t.Fatalf("Figure 3 has %d rows, want 7", len(rows))
	}
	if rows[0].Label != "Conservative Base" || rows[6].Lat.RemoteDirty != 200 {
		t.Fatal("presentation order wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := BaseConfig(8, 8*MB, 1)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.Processors = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("0 processors accepted")
	}
	cfg = BaseConfig(8, 8*MB, 1)
	cfg.L2SizeBytes = 1000
	if err := cfg.Validate(); err == nil {
		t.Fatal("bad L2 size accepted")
	}
	cfg = BaseConfig(8, 8*MB, 1)
	cfg.RACBytes = 100
	if err := cfg.Validate(); err == nil {
		t.Fatal("bad RAC accepted")
	}
	cfg = FullConfig(8, 2*MB, 8)
	cfg.Level = FullIntegration + 1
	if err := cfg.Validate(); err == nil || err.Error() != "core: unknown integration level 5" {
		t.Fatalf("unknown level: error %v", err)
	}
	// The smallest L2 and RAC a way word's tag covers are cache.MinSets
	// sets; one fewer set's worth is refused.
	cfg = BaseConfig(8, cache.MinSets*64*8, 8)
	cfg.RACBytes = cache.MinSets * 64 * 8
	if err := cfg.Validate(); err != nil {
		t.Fatalf("L2 and RAC of %d sets refused: %v", cache.MinSets, err)
	}
	cfg.L2SizeBytes = (cache.MinSets - 1) * 64 * 8
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "L2 of") {
		t.Fatalf("L2 under %d sets: error %v", cache.MinSets, err)
	}
	cfg.L2SizeBytes = cache.MinSets * 64 * 8
	cfg.RACBytes = (cache.MinSets - 1) * 64 * 8
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "RAC of") {
		t.Fatalf("RAC under %d sets: error %v", cache.MinSets, err)
	}
	cfg = BaseConfig(1, 8*MB, 1)
	cfg.RACBytes = 8 * MB
	if err := cfg.Validate(); err == nil {
		t.Fatal("RAC on a uniprocessor accepted")
	}
	cfg = BaseConfig(8, 8*MB, 1)
	cfg.CoresPerChip = 8
	cfg.RACBytes = 8 * MB
	if err := cfg.Validate(); err == nil {
		t.Fatal("RAC on one 8-core chip accepted")
	}
}

func TestLatencyOverride(t *testing.T) {
	cfg := BaseConfig(1, 8*MB, 1)
	lt := LatencyTable{L2Hit: 1, Local: 2, Remote: 3, RemoteDirty: 4}
	cfg.LatencyOverride = &lt
	if cfg.Latencies() != lt {
		t.Fatal("override ignored")
	}
}

func TestConfigNames(t *testing.T) {
	if BaseConfig(1, 8*MB, 1).Name != "Base 8M1w" {
		t.Fatalf("name %q", BaseConfig(1, 8*MB, 1).Name)
	}
	if IntegratedL2Config(1, 2*MB, 8, OnChipSRAM).Name != "L2 2M8w" {
		t.Fatal("integrated name wrong")
	}
	if got := FullConfig(8, 5*MB/4, 4).Name; got != "All 1.2M4w" && got != "All 1.25M4w" {
		t.Fatalf("fractional name %q", got)
	}
}

func TestStringers(t *testing.T) {
	if FullIntegration.String() != "L2+MC+CC/NR" || Base.String() != "base" {
		t.Fatal("level strings wrong")
	}
	if OnChipDRAM.String() != "on-chip DRAM" {
		t.Fatal("tech strings wrong")
	}
}
