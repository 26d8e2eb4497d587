package server

import (
	"fmt"
	"strings"
	"testing"

	"oltpsim/internal/cli"
)

// validSpecJSON is a well-formed two-machine submission used across the
// decode tests.
const validSpecJSON = `{
	"name": "smoke",
	"machines": [
		{"procs": 1, "level": "base", "l2": "1M", "assoc": 1},
		{"procs": 2, "level": "full", "l2": "1M", "assoc": 2}
	],
	"warmup_txns": 60,
	"measure_txns": 120,
	"quick": true
}`

func TestDecodeJobSpecValid(t *testing.T) {
	spec, cfgs, err := DecodeJobSpec(strings.NewReader(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "smoke" || spec.WarmupTxns != 60 || spec.MeasureTxns != 120 || !spec.Quick {
		t.Errorf("decoded spec fields wrong: %+v", spec)
	}
	if len(cfgs) != 2 {
		t.Fatalf("resolved %d configs, want 2", len(cfgs))
	}
	// The wire format resolves through the same path as the CLI flags.
	want, err := cli.Build(cli.MachineSpec{Procs: 2, Level: "full", L2: "1M", Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cfgs[1].Name != want.Name || cfgs[1].Processors != want.Processors {
		t.Errorf("machine 1 resolved to %q, want %q", cfgs[1].Name, want.Name)
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Errorf("accepted spec produced invalid config %q: %v", cfg.Name, err)
		}
	}
}

func TestDecodeJobSpecRejects(t *testing.T) {
	machine := `{"procs": 1, "level": "base", "l2": "1M", "assoc": 1}`
	manyMachines := machine + strings.Repeat(","+machine, MaxMachines)
	cases := []struct {
		name, body string
	}{
		{"empty body", ``},
		{"not json", `procs=8`},
		{"unknown field", `{"machines": [` + machine + `], "measure_txns": 10, "bogus": 1}`},
		{"trailing data", `{"machines": [` + machine + `], "measure_txns": 10} extra`},
		{"second json value", `{"machines": [` + machine + `], "measure_txns": 10} {}`},
		{"no machines", `{"machines": [], "measure_txns": 10}`},
		{"machines absent", `{"measure_txns": 10}`},
		{"too many machines", `{"machines": [` + manyMachines + `], "measure_txns": 10}`},
		{"zero measure", `{"machines": [` + machine + `], "measure_txns": 0}`},
		{"measure too large", fmt.Sprintf(`{"machines": [%s], "measure_txns": %d}`, machine, uint64(MaxTxns)+1)},
		{"warmup too large", fmt.Sprintf(`{"machines": [%s], "measure_txns": 10, "warmup_txns": %d}`, machine, uint64(MaxTxns)+1)},
		{"negative workers", `{"machines": [` + machine + `], "measure_txns": 10, "workers": -1}`},
		{"huge workers", `{"machines": [` + machine + `], "measure_txns": 10, "workers": 257}`},
		{"retired workers field", `{"machines": [` + machine + `], "measure_txns": 10, "workers": 2}`},
		{"retired step_workers field", `{"machines": [` + machine + `], "measure_txns": 10, "step_workers": 2}`},
		{"long name", `{"name": "` + strings.Repeat("x", MaxNameLen+1) + `", "machines": [` + machine + `], "measure_txns": 10}`},
		{"bad level", `{"machines": [{"procs": 1, "level": "warp", "l2": "1M", "assoc": 1}], "measure_txns": 10}`},
		{"bad size", `{"machines": [{"procs": 1, "level": "base", "l2": "zero", "assoc": 1}], "measure_txns": 10}`},
		{"zero procs", `{"machines": [{"procs": 0, "level": "base", "l2": "1M", "assoc": 1}], "measure_txns": 10}`},
		{"RAC on one chip", `{"machines": [{"procs": 1, "level": "full", "l2": "2M", "assoc": 8, "rac": "8M"}], "measure_txns": 10}`},
		{"RAC on one CMP chip", `{"machines": [{"procs": 8, "level": "full", "l2": "2M", "assoc": 8, "rac": "8M", "cores": 8}], "measure_txns": 10}`},
		{"checkpoint quantum too large", fmt.Sprintf(`{"machines": [%s], "measure_txns": 10, "checkpoint_every": %d}`, machine, uint64(MaxTxns)+1)},
		{"oversized body", `{"name": "` + strings.Repeat("x", MaxSpecBytes) + `"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := DecodeJobSpec(strings.NewReader(tc.body)); err == nil {
				t.Errorf("spec accepted, want rejection")
			}
		})
	}
}

// TestDecodeJobSpecCheckpointEvery pins the tri-state quantum: absent means
// nil (server default), explicit 0 survives as a non-nil zero (a
// checkpoint-free job), and a positive value passes through.
func TestDecodeJobSpecCheckpointEvery(t *testing.T) {
	machine := `{"procs": 1, "level": "base", "l2": "1M", "assoc": 1}`
	spec, _, err := DecodeJobSpec(strings.NewReader(`{"machines": [` + machine + `], "measure_txns": 10}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.CheckpointEvery != nil {
		t.Errorf("absent checkpoint_every decoded non-nil: %v", *spec.CheckpointEvery)
	}
	spec, _, err = DecodeJobSpec(strings.NewReader(`{"machines": [` + machine + `], "measure_txns": 10, "checkpoint_every": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.CheckpointEvery == nil || *spec.CheckpointEvery != 0 {
		t.Errorf("explicit checkpoint_every 0 lost its explicitness: %v", spec.CheckpointEvery)
	}
	spec, _, err = DecodeJobSpec(strings.NewReader(`{"machines": [` + machine + `], "measure_txns": 10, "checkpoint_every": 75}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.CheckpointEvery == nil || *spec.CheckpointEvery != 75 {
		t.Errorf("checkpoint_every 75 decoded as %v", spec.CheckpointEvery)
	}
}
