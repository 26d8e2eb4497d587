package server

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"oltpsim/internal/experiments"
)

// runJobs submits every spec to s over HTTP, waits for each job to finish
// done, and returns their statuses in submission order.
func runJobs(t *testing.T, s *Server, specs []string) []Status {
	t.Helper()
	ts := httptest.NewServer(s)
	defer ts.Close()
	ids := make([]string, len(specs))
	for i, body := range specs {
		ids[i] = postJob(t, ts, body).ID
	}
	out := make([]Status, len(specs))
	for i, id := range ids {
		if state := waitTerminal(t, s, id); state != StateDone {
			t.Fatalf("job %d (%s) finished %q, want done", i, id, state)
		}
		out[i] = getStatus(t, ts, id)
	}
	return out
}

// serviceSpecs are the job shapes of the service-jobs benchmark mix,
// shortened for a test: a quick 1-CPU Base 8M1w, an 8-CPU Full 2M8w and the
// same machine under a phased profile, each at two workload seeds.
func serviceSpecs() []string {
	shapes := []string{
		`"machines": [{"procs": 1, "level": "base", "l2": "8M", "assoc": 1}]`,
		`"machines": [{"procs": 8, "level": "full", "l2": "2M", "assoc": 8}]`,
		`"machines": [{"procs": 8, "level": "full", "l2": "2M", "assoc": 8}],
		"scenario": {"name": "shift", "phases": [
			{"name": "day", "txns": 40, "mix": {"update": 3, "read": 1}, "skew": 0.6},
			{"name": "night", "txns": 40, "ramp_txns": 10, "mix": {"update": 1, "scan": 3}, "scan_blocks": 32}
		]}`,
	}
	var specs []string
	for _, seed := range []int{3, 4} {
		for _, sh := range shapes {
			specs = append(specs, fmt.Sprintf(
				`{%s, "warmup_txns": 40, "measure_txns": 80, "quick": true, "seed": %d}`, sh, seed))
		}
	}
	return specs
}

// TestServerServiceMixMatchesExecute: two workers running the service mix
// concurrently return exactly what a direct Execute returns for each job.
func TestServerServiceMixMatchesExecute(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	cfg := testServerConfig(t.TempDir())
	cfg.Workers = 2
	s := newTestServer(t, cfg)
	specs := serviceSpecs()
	got := runJobs(t, s, specs)
	for i, body := range specs {
		spec, cfgs, err := DecodeJobSpec(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		o := experiments.Options{
			WarmupTxns: spec.WarmupTxns, MeasureTxns: spec.MeasureTxns,
			Seed: spec.Seed, Quick: spec.Quick,
		}
		if spec.Scenario != nil {
			o.Scenario = spec.Scenario.MustCompile()
		}
		want, _, err := o.Execute(cfgs[0], experiments.CheckpointRun{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got[i].Results) != 1 {
			t.Fatalf("job %d: %d results, want 1", i, len(got[i].Results))
		}
		if g, w := mustJSON(t, got[i].Results[0]), mustJSON(t, want.Total); !bytes.Equal(g, w) {
			t.Errorf("job %d differs from a direct run:\n got %s\nwant %s", i, g, w)
		}
	}
}
