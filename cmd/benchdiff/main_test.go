package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestCompare pins the regression policy: the -threshold flag governs the
// machine-dependent time check, -alloc-tolerance the deterministic alloc
// check, and -allocs-only disables only the former.
func TestCompare(t *testing.T) {
	base := []Benchmark{{Name: "BenchmarkX", NsPerOp: 1000, AllocsPerOp: 100}}
	obs := func(ns float64, allocs uint64) map[string]Benchmark {
		return map[string]Benchmark{"BenchmarkX": {Name: "BenchmarkX", NsPerOp: ns, AllocsPerOp: allocs}}
	}
	cases := []struct {
		name       string
		base       []Benchmark
		got        map[string]Benchmark
		threshold  float64
		allocTol   float64
		allocsOnly bool
		wantFailed bool
		wantLine   string
	}{
		{"identical", base, obs(1000, 100), 10, 0.01, false, false, "ok  "},
		{"faster is fine", base, obs(500, 100), 10, 0.01, false, false, "ok  "},
		{"time within threshold", base, obs(1050, 100), 10, 0.01, false, false, "ok  "},
		{"time beyond threshold", base, obs(1150, 100), 10, 0.01, false, true, "FAIL"},
		{"raised threshold admits it", base, obs(1150, 100), 25, 0.01, false, false, "ok  "},
		{"tightened threshold rejects it", base, obs(1050, 100), 2, 0.01, false, true, "FAIL"},
		{"allocs-only skips time check", base, obs(2000, 100), 10, 0.01, true, false, "ok  "},
		{"alloc regression", base, obs(1000, 110), 10, 0.01, false, true, "FAIL"},
		{"alloc regression despite allocs-only", base, obs(1000, 110), 10, 0.01, true, true, "FAIL"},
		{"alloc within tolerance", base, obs(1000, 100), 10, 0.15, false, false, "ok  "},
		{"missing benchmark", base, map[string]Benchmark{}, 10, 0.01, false, true, "missing"},
		{
			"allocation where baseline had none",
			[]Benchmark{{Name: "BenchmarkX", NsPerOp: 1000, AllocsPerOp: 0}},
			obs(1000, 1), 10, 0.01, false, true, "FAIL",
		},
		{"empty baseline", nil, obs(1000, 100), 10, 0.01, false, false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results, failed := compare(tc.base, tc.got, tc.threshold, tc.allocTol, tc.allocsOnly)
			if failed != tc.wantFailed {
				t.Fatalf("failed = %v, want %v (results: %v)", failed, tc.wantFailed, results)
			}
			if len(results) != len(tc.base) {
				t.Fatalf("%d results for %d baseline entries", len(results), len(tc.base))
			}
			if tc.wantLine != "" && !strings.Contains(renderResult(results[0]), tc.wantLine) {
				t.Fatalf("line %q does not contain %q", renderResult(results[0]), tc.wantLine)
			}
			// Every failing result must carry an explicit reason; passing
			// ones must not.
			for _, r := range results {
				if (r.Status != "ok") != (len(r.Reasons) > 0) {
					t.Errorf("result %+v: status and reasons disagree", r)
				}
			}
		})
	}
}

// TestCompareReportsDeltasWhenPassing pins the always-report contract: a
// benchmark inside every tolerance still carries its exact time, alloc and
// B/op deltas, in both the structured result and the human line. B/op is
// advisory, so bytes grown far past the baseline still pass.
func TestCompareReportsDeltasWhenPassing(t *testing.T) {
	base := []Benchmark{{Name: "BenchmarkX", NsPerOp: 1000, AllocsPerOp: 200, BytesPerOp: 4000}}
	got := map[string]Benchmark{"BenchmarkX": {Name: "BenchmarkX", NsPerOp: 1050, AllocsPerOp: 198, BytesPerOp: 10000}}
	results, failed := compare(base, got, 10, 0.05, false)
	if failed || len(results) != 1 {
		t.Fatalf("failed=%v results=%v, want one passing result", failed, results)
	}
	r := results[0]
	if r.Status != "ok" || r.TimeDeltaPct < 4.9 || r.TimeDeltaPct > 5.1 {
		t.Errorf("time delta %+v, want ~+5%%", r)
	}
	if r.AllocDeltaPct > -0.9 || r.AllocDeltaPct < -1.1 {
		t.Errorf("alloc delta %.2f%%, want ~-1%%", r.AllocDeltaPct)
	}
	if r.BytesPerOp != 10000 || r.BaseBytesPerOp != 4000 || r.BytesDeltaPct != 150 {
		t.Errorf("B/op %d (baseline %d, %+.1f%%), want 10000 (baseline 4000, +150%%)", r.BytesPerOp, r.BaseBytesPerOp, r.BytesDeltaPct)
	}
	line := renderResult(r)
	for _, want := range []string{"allocs/op", "ns/op", "baseline", "10000 B/op (baseline 4000, +150.0%)"} {
		if !strings.Contains(line, want) {
			t.Errorf("human line %q missing %q", line, want)
		}
	}
	// The structured form must round-trip through JSON with every delta.
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"time_delta_pct"`, `"alloc_delta_pct"`, `"base_allocs_per_op"`,
		`"bytes_per_op":10000`, `"base_bytes_per_op":4000`, `"bytes_delta_pct":150`} {
		if !strings.Contains(string(out), want) {
			t.Errorf("JSON %s missing %s", out, want)
		}
	}
}

// TestCompareFailureReasons pins that a double regression names both
// counters.
func TestCompareFailureReasons(t *testing.T) {
	base := []Benchmark{{Name: "BenchmarkX", NsPerOp: 1000, AllocsPerOp: 100}}
	got := map[string]Benchmark{"BenchmarkX": {Name: "BenchmarkX", NsPerOp: 2000, AllocsPerOp: 150}}
	results, failed := compare(base, got, 10, 0.01, false)
	if !failed || len(results) != 1 || len(results[0].Reasons) != 2 {
		t.Fatalf("results = %+v, want one result with two reasons", results)
	}
	line := renderResult(results[0])
	if !strings.Contains(line, "exceeds") {
		t.Errorf("human line %q does not spell out the failure reasons", line)
	}
}

// fakeRunner returns a runOne stub whose group names derive from the spec
// pattern, recording how many groups actually ran.
func fakeRunner(calls *int) func(context.Context, benchSpec) (map[string]Benchmark, error) {
	return func(_ context.Context, spec benchSpec) (map[string]Benchmark, error) {
		*calls++
		name := "Benchmark" + strings.Trim(spec.pattern, "^$")
		return map[string]Benchmark{name: {Name: name, NsPerOp: float64(*calls)}}, nil
	}
}

// TestCollectComplete: with an untouched context, collect merges every
// group's observations.
func TestCollectComplete(t *testing.T) {
	specs := []benchSpec{{"^A$", "1x"}, {"^B$", "1x"}, {"^C$", "1x"}}
	calls := 0
	got, err := collect(context.Background(), specs, fakeRunner(&calls))
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if calls != 3 || len(got) != 3 {
		t.Fatalf("calls=%d len(got)=%d, want 3 and 3", calls, len(got))
	}
	for _, name := range []string{"BenchmarkA", "BenchmarkB", "BenchmarkC"} {
		if _, ok := got[name]; !ok {
			t.Errorf("missing %s", name)
		}
	}
}

// TestCollectInterrupted pins the partial-output contract: a signal that
// kills the in-flight benchmark group yields the groups that finished
// before it, the context error (not the kill error), and no further runs.
func TestCollectInterrupted(t *testing.T) {
	specs := []benchSpec{{"^A$", "1x"}, {"^B$", "1x"}, {"^C$", "1x"}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	got, err := collect(ctx, specs, func(_ context.Context, spec benchSpec) (map[string]Benchmark, error) {
		calls++
		if spec.pattern == "^B$" {
			// The signal arrives while B runs: the context dies and the
			// killed `go test` surfaces its own error.
			cancel()
			return nil, errors.New("go test -bench: signal: killed")
		}
		name := "Benchmark" + strings.Trim(spec.pattern, "^$")
		return map[string]Benchmark{name: {Name: name, NsPerOp: 1}}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("collect = %v, want context.Canceled", err)
	}
	if calls != 2 {
		t.Errorf("ran %d groups, want 2 (C must not run after the interrupt)", calls)
	}
	if len(got) != 1 {
		t.Fatalf("partial results = %v, want BenchmarkA only", got)
	}
	if _, ok := got["BenchmarkA"]; !ok {
		t.Errorf("completed group BenchmarkA missing from partial results")
	}
}

// TestCollectPreCanceled: an already-dead context runs nothing.
func TestCollectPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	got, err := collect(ctx, []benchSpec{{"^A$", "1x"}}, fakeRunner(&calls))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("collect = %v, want context.Canceled", err)
	}
	if calls != 0 || len(got) != 0 {
		t.Errorf("calls=%d len(got)=%d, want 0 and 0", calls, len(got))
	}
}

// TestCollectRunError: a genuine benchmark failure (context still alive)
// propagates as-is, with the groups collected before it.
func TestCollectRunError(t *testing.T) {
	specs := []benchSpec{{"^A$", "1x"}, {"^B$", "1x"}}
	broken := errors.New("compile error")
	got, err := collect(context.Background(), specs, func(_ context.Context, spec benchSpec) (map[string]Benchmark, error) {
		if spec.pattern == "^B$" {
			return nil, broken
		}
		return map[string]Benchmark{"BenchmarkA": {Name: "BenchmarkA"}}, nil
	})
	if !errors.Is(err, broken) {
		t.Fatalf("collect = %v, want the runner's own error", err)
	}
	if len(got) != 1 {
		t.Errorf("partial results = %v, want BenchmarkA", got)
	}
}

// TestCollectEmptyMatch: a pattern that matches nothing is an error naming
// the pattern — a silently absent benchmark would make the baseline lie.
func TestCollectEmptyMatch(t *testing.T) {
	got, err := collect(context.Background(), []benchSpec{{"^Nope$", "1x"}},
		func(context.Context, benchSpec) (map[string]Benchmark, error) {
			return map[string]Benchmark{}, nil
		})
	if err == nil || !strings.Contains(err.Error(), "^Nope$") {
		t.Fatalf("collect = (%v, %v), want error naming the pattern", got, err)
	}
}

// TestCollected: the interrupted-comparison filter keeps baseline order and
// drops only the entries the interrupt skipped.
func TestCollected(t *testing.T) {
	base := []Benchmark{{Name: "BenchmarkA"}, {Name: "BenchmarkB"}, {Name: "BenchmarkC"}}
	got := map[string]Benchmark{"BenchmarkC": {}, "BenchmarkA": {}}
	have := collected(base, got)
	if fmt.Sprint(have) != fmt.Sprint([]Benchmark{{Name: "BenchmarkA"}, {Name: "BenchmarkC"}}) {
		t.Errorf("collected = %v, want A then C in baseline order", have)
	}
}

// TestCompareExtraObservations: benchmarks present in the run but absent from
// the baseline are ignored — the baseline defines the guarded set.
func TestCompareExtraObservations(t *testing.T) {
	base := []Benchmark{{Name: "BenchmarkX", NsPerOp: 1000, AllocsPerOp: 10}}
	got := map[string]Benchmark{
		"BenchmarkX": {Name: "BenchmarkX", NsPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkY": {Name: "BenchmarkY", NsPerOp: 9999, AllocsPerOp: 9999},
	}
	lines, failed := compare(base, got, 10, 0.01, false)
	if failed || len(lines) != 1 {
		t.Fatalf("failed=%v lines=%v, want one passing line", failed, lines)
	}
}

// TestParseBenchCustomMetric: a b.ReportMetric unit between ns/op and B/op
// does not hide the memory counters, and the minimum per field wins across
// repetitions.
func TestParseBenchCustomMetric(t *testing.T) {
	out := `goos: linux
BenchmarkCheckpointWrite-2   	      10	  12000000 ns/op	   6439327 ckpt-bytes	16000000 B/op	     120 allocs/op
BenchmarkCheckpointWrite-2   	      10	  11000000 ns/op	   6439327 ckpt-bytes	16000100 B/op	     121 allocs/op
BenchmarkRunnerSerial-2   	       1	 951630154 ns/op	205174040 B/op	   29821 allocs/op
BenchmarkFig05OffChipL2Uni-2   	       1	 951630154 ns/op	       100.0 Base_1M1w-exec
PASS
`
	got, err := parseBench(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Benchmark{
		"BenchmarkCheckpointWrite":   {Name: "BenchmarkCheckpointWrite", NsPerOp: 11000000, BytesPerOp: 16000000, AllocsPerOp: 120},
		"BenchmarkRunnerSerial":      {Name: "BenchmarkRunnerSerial", NsPerOp: 951630154, BytesPerOp: 205174040, AllocsPerOp: 29821},
		"BenchmarkFig05OffChipL2Uni": {Name: "BenchmarkFig05OffChipL2Uni", NsPerOp: 951630154},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseBench =\n%+v\nwant\n%+v", got, want)
	}
}
