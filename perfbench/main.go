// Command perfbench is the repository benchmark. It runs one named workload
// on the simulator's user surfaces (the figures, oltpsim and oltpserver
// binaries and the HTTP job API), checks the outputs, and prints one JSON
// result line with every end-to-end metric. With -trace 1 it runs the
// traced ledger instead: spans around the calls into each simulator layer,
// a CPU profile grouped by layer, and the simulated statistics, each checked
// against an untraced run of the same machines.
//
// Run it through run.sh from the repository root, which builds the binaries
// first; see README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

const (
	// buildDir holds the binaries run.sh builds and everything a run writes.
	buildDir = ".bench_build"
	// runBudget bounds one benchmark run; children still running then are
	// killed and the run fails.
	runBudget = 170 * time.Second
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records n failed operations with the reason on standard error.
func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// env is what every workload needs: its inputs and where things live.
type env struct {
	seed    int64
	seconds time.Duration
	bin     string // directory of the built binaries
	work    string // scratch directory of this run
}

func (e *env) binary(name string) string { return filepath.Join(e.bin, name) }

// workload is one benchmark workload: an end-to-end measurement, and what
// its traced run simulates and submits.
type workload struct {
	measure       func(ctx context.Context, e *env) (result, error)
	traceProto    protocol
	traceMachines []machine
	traceJobs     func(e *env) int
}

var workloads = map[string]workload{
	"paper-figures": {measurePaperFigures, protocol{}, figureLadder, serverProbe},
	"wide-machine": {measureWideMachine, protocol{warmup: wideWarmup, measure: wideMeasure},
		[]machine{wideMachine}, serverProbe},
	"service-jobs": {measureService, protocol{quick: true, scenario: serviceScenario}, serviceMachines, serviceJobs},
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: paper-figures, wide-machine or service-jobs")
	seed := flag.Int64("seed", 0, "workload seed (job specs, job order, traced-run seed)")
	seconds := flag.Int("seconds", 30, "measurement time per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload <name> -seed <n> -seconds <s> -trace <0|1>")
		flag.Usage()
		return 2
	}
	want, err := declaredMetrics(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(filepath.Join(cwd, buildDir), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, bin: filepath.Join(cwd, buildDir, "bin"), work: work}

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	var res result
	if *trace == 1 {
		res, err = traceWorkload(ctx, *name, w, e)
	} else {
		res, err = w.measure(ctx, e)
	}
	if err == nil {
		err = checkMetrics(res.Metrics, want)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	report(*name, &res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// declaredMetrics reads BENCHMARK.json and returns the units of the metrics
// a run must report: the end-to-end set, or the per-layer set when traced.
func declaredMetrics(traced bool) (map[string]string, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := b.EndToEnd
	if traced {
		list = b.PerLayer
	}
	units := make(map[string]string, len(list))
	for _, d := range list {
		units[d.Name] = d.Unit
	}
	return units, nil
}

// checkMetrics requires the reported metrics to be exactly the declared ones,
// with the declared units.
func checkMetrics(got map[string]metric, want map[string]string) error {
	var errs []error
	for _, name := range sortedNames(want) {
		m, ok := got[name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s not reported", name))
		case m.Unit != want[name]:
			errs = append(errs, fmt.Errorf("metric %s reported in %s, declared in %s", name, m.Unit, want[name]))
		}
	}
	for _, name := range sortedNames(got) {
		if _, ok := want[name]; !ok {
			errs = append(errs, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name))
		}
	}
	return errors.Join(errs...)
}

// report prints the result as a table on standard error.
func report(name string, r *result) {
	names := sortedNames(r.Metrics)
	fmt.Fprintf(os.Stderr, "perfbench: %s: correct=%t attempted=%d failed=%d\n", name, r.Correct, r.Attempted, r.Failed)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// sortedNames returns a map's keys in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
