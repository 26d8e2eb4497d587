package cli

import (
	"testing"

	"oltpsim/internal/core"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"8M", 8 * core.MB, false},
		{"1.25M", 5 * core.MB / 4, false},
		{"512K", 512 * core.KB, false},
		{"2m", 2 * core.MB, false},
		{" 4M ", 4 * core.MB, false},
		{"65536", 65536, false},
		{"", 0, true},
		{"abc", 0, true},
		{"-2M", 0, true},
		{"0", 0, true},
		{"0.5", 0, true}, // rounds to no bytes at all
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if c.err != (err != nil) {
			t.Errorf("ParseSize(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestBuildLevels(t *testing.T) {
	cases := []struct {
		level string
		want  core.IntegrationLevel
	}{
		{"cons", core.ConservativeBase},
		{"base", core.Base},
		{"l2", core.IntegratedL2},
		{"l2mc", core.IntegratedL2MC},
		{"full", core.FullIntegration},
		{"FULL", core.FullIntegration},
	}
	for _, c := range cases {
		cfg, err := Build(MachineSpec{Procs: 8, Level: c.level, L2: "2M", Assoc: 8})
		if err != nil {
			t.Fatalf("Build(%s): %v", c.level, err)
		}
		if cfg.Level != c.want {
			t.Errorf("Build(%s) level %v, want %v", c.level, cfg.Level, c.want)
		}
	}
	if _, err := Build(MachineSpec{Procs: 8, Level: "bogus", L2: "2M", Assoc: 8}); err == nil {
		t.Fatal("unknown level accepted")
	}
}

func TestBuildOptions(t *testing.T) {
	cfg, err := Build(MachineSpec{
		Procs: 8, Level: "full", L2: "1M", Assoc: 4,
		OOO: true, RACSize: "8M", Repl: true, Cores: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.OutOfOrder {
		t.Fatal("OOO not configured")
	}
	if cfg.RACBytes != 8*core.MB {
		t.Fatal("RAC not configured")
	}
	if !cfg.CodeReplication || cfg.CoresPerChip != 2 {
		t.Fatal("replication/CMP not configured")
	}
}

// TestBuildOneCoreSpelling: a one-core-per-chip machine has one spelling.
// Cores 0 (the job-spec default) and 1 (the oltpsim flag default) both
// build the constructor's machine, so a checkpoint or a deduplicated sweep
// sees one fingerprint whichever way it was asked for.
func TestBuildOneCoreSpelling(t *testing.T) {
	want := core.FullConfig(8, 2*core.MB, 8).Fingerprint()
	for _, cores := range []int{0, 1} {
		cfg, err := Build(MachineSpec{Procs: 8, Level: "full", L2: "2M", Assoc: 8, Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		if got := cfg.Fingerprint(); got != want {
			t.Errorf("Cores %d: fingerprint\n%s\nwant the constructor's\n%s", cores, got, want)
		}
	}
}

func TestBuildDRAM(t *testing.T) {
	cfg, err := Build(MachineSpec{Procs: 1, Level: "l2", L2: "8M", Assoc: 8, DRAM: true})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L2TechKind != core.OnChipDRAM {
		t.Fatal("DRAM tech not selected")
	}
	if cfg.Latencies().L2Hit != 25 {
		t.Fatal("DRAM hit latency wrong")
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	if _, err := Build(MachineSpec{Procs: 8, Level: "base", L2: "xx", Assoc: 1}); err == nil {
		t.Fatal("bad size accepted")
	}
	for _, rac := range []string{"zz", "0.5"} {
		if _, err := Build(MachineSpec{Procs: 8, Level: "base", L2: "8M", Assoc: 1, RACSize: rac}); err == nil {
			t.Fatalf("bad RAC size %q accepted", rac)
		}
	}
	if _, err := Build(MachineSpec{Procs: 8, Level: "base", L2: "8M", Assoc: 1, Cores: 3}); err == nil {
		t.Fatal("non-dividing cores accepted")
	}
}
