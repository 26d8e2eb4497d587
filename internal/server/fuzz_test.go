package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzJobSpecDecode hammers the submission decoder: whatever bytes arrive,
// it must never panic, and any spec it accepts must resolve only into
// configurations core.Config.Validate approves and the documented bounds
// allow — nothing the simulator would choke on can reach the job queue.
// Accepted specs must also survive a marshal/decode round trip to the same
// configurations (the persistence layer re-decodes spec.json on recovery).
func FuzzJobSpecDecode(f *testing.F) {
	f.Add(validSpecJSON)
	f.Add(`{"machines": [{"procs": 1, "level": "base", "l2": "1M", "assoc": 1}], "measure_txns": 10}`)
	f.Add(`{"machines": [{"procs": 8, "level": "l2mc", "l2": "8M", "assoc": 4, "cores": 2}], "warmup_txns": 3000, "measure_txns": 2000, "checkpoint_every": 500}`)
	f.Add(`{"machines": [{"procs": 4, "level": "full", "l2": "8M", "assoc": 4, "rac": "2M", "repl": true}], "measure_txns": 100}`)
	f.Add(`{"machines": [{"procs": 2, "level": "l2", "l2": "512K", "assoc": 2, "dram": true, "ooo": true}], "measure_txns": 5, "seed": 42, "quick": true}`)
	f.Add(`{"machines": [{"procs": 1, "level": "cons", "l2": "0.5M", "assoc": 1}], "measure_txns": 1, "checkpoint_every": 0}`)
	f.Add(`{"machines": [{"procs": 8, "level": "l2", "l2": "2M", "assoc": 8}], "measure_txns": 10, "scenario": {"name": "burst", "phases": [{"name": "calm", "txns": 100}, {"name": "spike", "txns": 50, "ramp_txns": 10, "mix": {"update": 1, "read": 3}, "skew": 0.9}]}}`)
	f.Add(`{"machines": [{"procs": 1, "level": "base", "l2": "8M", "assoc": 1}], "measure_txns": 10, "scenario": {"phases": [{"txns": 0}]}}`)
	f.Add(`{"machines": []}`)
	f.Add(`{"measure_txns": 18446744073709551615}`)
	f.Add(`[1,2,3]`)
	f.Add(`{"machines": [{"procs": -1, "level": "base", "l2": "-1M", "assoc": -1}], "measure_txns": 10}`)
	f.Fuzz(func(t *testing.T, body string) {
		spec, cfgs, err := DecodeJobSpec(strings.NewReader(body))
		if err != nil {
			return
		}
		if len(cfgs) == 0 || len(cfgs) > MaxMachines {
			t.Fatalf("accepted spec resolved %d configs outside (0,%d]", len(cfgs), MaxMachines)
		}
		if spec.MeasureTxns == 0 || spec.MeasureTxns > MaxTxns || spec.WarmupTxns > MaxTxns {
			t.Fatalf("accepted spec with out-of-bounds protocol: warmup=%d measure=%d", spec.WarmupTxns, spec.MeasureTxns)
		}
		if spec.Scenario != nil {
			sched, err := spec.Scenario.Compile()
			if err != nil {
				t.Fatalf("accepted spec carries a scenario that does not compile: %v", err)
			}
			if sched.TotalTxns() == 0 || sched.TotalTxns() > MaxTxns {
				t.Fatalf("accepted spec scenario totals %d transactions", sched.TotalTxns())
			}
		}
		for i, cfg := range cfgs {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("accepted spec resolved invalid config %d (%q): %v", i, cfg.Name, err)
			}
		}
		// Round trip through the persistence encoding: recovery decodes
		// spec.json and must land on the identical sweep.
		encoded, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-encoding accepted spec: %v", err)
		}
		spec2, cfgs2, err := DecodeJobSpec(bytes.NewReader(encoded))
		if err != nil {
			t.Fatalf("re-decoding persisted spec: %v", err)
		}
		if len(cfgs2) != len(cfgs) {
			t.Fatalf("round trip changed config count: %d != %d", len(cfgs2), len(cfgs))
		}
		for i := range cfgs {
			if cfgs[i].Name != cfgs2[i].Name {
				t.Fatalf("round trip changed config %d: %q != %q", i, cfgs[i].Name, cfgs2[i].Name)
			}
		}
		if (spec.CheckpointEvery == nil) != (spec2.CheckpointEvery == nil) {
			t.Fatal("round trip changed checkpoint_every explicitness")
		}
	})
}
