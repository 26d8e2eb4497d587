package server

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"oltpsim/internal/experiments"
	"oltpsim/internal/sim"
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

// TestServerSharesZetaCache pins the server-lifetime Zipf-constant cache:
// two workers running the service mix concurrently through one cache return
// exactly what a direct Execute with a fresh cache returns for each job, and
// the cache ends holding only the quick database's two engine constants.
func TestServerSharesZetaCache(t *testing.T) {
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
			Seed: spec.Seed, Quick: spec.Quick, Zeta: sim.NewZetaCache(),
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
			t.Errorf("job %d differs from a direct run with a fresh cache:\n got %s\nwant %s", i, g, w)
		}
	}
	if n := s.zeta.Len(); n != 2 {
		t.Errorf("server cache holds %d entries after the service mix, want 2 (shared pool, row cache)", n)
	}
}

// TestServerZetaCacheBounded submits phased jobs at six distinct branch
// skews: the skews are client input, so none of them may become a key of
// the cache the server keeps for its whole life.
func TestServerZetaCacheBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s := newTestServer(t, testServerConfig(t.TempDir()))
	var specs []string
	for _, sk := range [][2]float64{{0.2, 0.4}, {0.6, 0.8}, {0.9, 0.99}} {
		specs = append(specs, fmt.Sprintf(`{
			"machines": [{"procs": 1, "level": "base", "l2": "1M", "assoc": 1}],
			"warmup_txns": 20, "measure_txns": 1, "quick": true,
			"scenario": {"name": "skews", "phases": [
				{"name": "a", "txns": 20, "skew": %v},
				{"name": "b", "txns": 20, "skew": %v}
			]}
		}`, sk[0], sk[1]))
	}
	runJobs(t, s, specs)
	if n := s.zeta.Len(); n != 2 {
		t.Errorf("server cache holds %d entries after six client skews, want 2", n)
	}
}
