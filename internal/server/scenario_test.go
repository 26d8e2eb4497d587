package server

import (
	"net/http/httptest"
	"testing"

	"oltpsim/internal/cli"
	"oltpsim/internal/experiments"
	"oltpsim/internal/scenario"
)

// scenarioSpec is a phased job: one machine under a two-phase mix-flip
// profile, sized so the 50-transaction checkpoint quantum fires mid-phase.
func scenarioSpec() string {
	return `{
		"name": "phased",
		"machines": [
			{"procs": 2, "level": "full", "l2": "1M", "assoc": 2}
		],
		"warmup_txns": 60,
		"measure_txns": 1,
		"quick": true,
		"scenario": {
			"name": "flip",
			"phases": [
				{"name": "writes", "txns": 70},
				{"name": "reads", "txns": 70, "ramp_txns": 20, "mix": {"update": 1, "read": 2}, "skew": 0.7}
			]
		}
	}`
}

// TestServerScenarioJob submits a phased job and pins its contract: the
// result the checkpointed server path returns is byte-for-byte the
// whole-run total of running the same scenario through experiments
// directly, and the progress target is the schedule's total (measure_txns
// is ignored).
func TestServerScenarioJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s := newTestServer(t, testServerConfig(t.TempDir()))
	ts := httptest.NewServer(s)
	defer ts.Close()

	st := postJob(t, ts, scenarioSpec())
	if state := waitTerminal(t, s, st.ID); state != StateDone {
		t.Fatalf("job ended in state %q", state)
	}
	got := getStatus(t, ts, st.ID)
	if len(got.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(got.Results))
	}

	o := smokeOptions()
	prof := scenario.Profile{Name: "flip", Phases: []scenario.Phase{
		{Name: "writes", Txns: 70},
		{Name: "reads", Txns: 70, RampTxns: 20, Mix: &scenario.Mix{Update: 1, Read: 2}, Skew: 0.7},
	}}
	o.Scenario = prof.MustCompile()
	cfg, err := cli.Build(cli.MachineSpec{Procs: 2, Level: "full", L2: "1M", Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := o.Execute(cfg, experiments.CheckpointRun{})
	if err != nil {
		t.Fatal(err)
	}
	if string(mustJSON(t, got.Results[0])) != string(mustJSON(t, want.Total)) {
		t.Errorf("server scenario result differs from direct run:\n got %s\nwant %s",
			mustJSON(t, got.Results[0]), mustJSON(t, want.Total))
	}
	if got.Results[0].Txns != o.Scenario.TotalTxns() {
		t.Errorf("result spans %d txns, want the schedule total %d", got.Results[0].Txns, o.Scenario.TotalTxns())
	}
}
