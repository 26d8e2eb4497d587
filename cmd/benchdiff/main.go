// Command benchdiff is the benchmark regression guard for the hot-path
// work: it runs the repo's benchmarks, reduces each to its best (minimum)
// observation across -count repetitions — the right statistic on noisy
// shared machines, since noise only ever adds time — and either records the
// result as the committed baseline (-write) or compares against it (-check).
//
// Two counters are guarded differently because they fail differently:
//
//   - allocs/op does not depend on the machine's speed, so any increase
//     beyond -alloc-tolerance fails the check, on any machine. It is not
//     fully deterministic: a path that draws on a sync.Pool (fmt,
//     encoding/json) allocates again when a garbage collection has just
//     emptied the pool, so such a benchmark can read one or two more
//     allocs/op on one run than on the next. Each field's minimum over the
//     -count repetitions (parseBench) is what holds those benchmarks steady.
//   - ns/op is machine-dependent, so the time check (-threshold, default
//     10%) is meaningful on hardware comparable to the baseline's; pass
//     -allocs-only to skip it entirely (the blocking CI step does this,
//     the advisory step runs the full comparison).
//
// Usage:
//
//	go run ./cmd/benchdiff -write -count 5   # record cmd/benchdiff/baseline.json
//	go run ./cmd/benchdiff -check            # fail on time or alloc regression
//	go run ./cmd/benchdiff -check -allocs-only
//	go run ./cmd/benchdiff -check -threshold 25
//	go run ./cmd/benchdiff -check -json      # machine-readable comparison
//
// Every comparison — human or -json — reports the time, alloc and B/op
// deltas for every benchmark, including the ones that pass: a time delta
// inside the threshold and an alloc delta inside tolerance are still data
// (CI trend dashboards read the -json form), and a FAIL carries its
// explicit reasons rather than leaving the reader to reverse-engineer which
// counter tripped. B/op is advisory: no check fails on it, but a benchmark
// whose allocated bytes grow or shrink says so beside its baseline.
//
// A full sweep takes minutes, so SIGINT/SIGTERM are honored between and
// during benchmark groups: the in-flight `go test` is killed, and -check
// compares whatever completed before the interrupt (exit 130 if that
// partial slice is clean, 1 if it already shows a regression). A CI
// timeout therefore still reports which benchmarks passed instead of
// discarding the whole run. -write never records a partial baseline.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// Baseline is the committed benchmark record.
type Baseline struct {
	// Note reminds readers how the numbers were produced.
	Note string `json:"note"`
	// Short records whether the benchmarks ran with -short (the scaled-down
	// database); a check against a baseline from the other mode is invalid.
	Short      bool        `json:"short"`
	Count      int         `json:"count"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one benchmark's best observation.
type Benchmark struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
}

func main() {
	var (
		write      = flag.Bool("write", false, "record the baseline instead of checking against it")
		check      = flag.Bool("check", false, "compare against the committed baseline")
		baseline   = flag.String("baseline", "cmd/benchdiff/baseline.json", "baseline file path, relative to the repository root")
		count      = flag.Int("count", 3, "repetitions; the minimum per benchmark is used")
		short      = flag.Bool("short", true, "run benchmarks in -short mode")
		threshold  = flag.Float64("threshold", 10, "allowed ns/op regression in percent")
		allocTol   = flag.Float64("alloc-tolerance", 0.01, "allowed fractional allocs/op regression")
		allocsOnly = flag.Bool("allocs-only", false, "skip the machine-dependent ns/op comparison")
		jsonOut    = flag.Bool("json", false, "with -check, emit the comparison as JSON on stdout")
	)
	flag.Parse()
	if *write == *check {
		fmt.Fprintln(os.Stderr, "benchdiff: exactly one of -write or -check is required")
		os.Exit(2)
	}

	// Each guarded benchmark carries its own iteration budget:
	// RunnerSerial and Step64Serial regenerate a whole run per iteration
	// (1x is already seconds of simulation); SimulationThroughput and
	// StepScaling time single Step calls and need enough iterations that
	// setup cost amortizes away, which is also what drives their allocs/op
	// to the steady-state zero. StepScaling's sub-benchmarks (8 to 128
	// nodes) are the scaling guard: each is recorded under its full
	// "BenchmarkStepScaling/nodes=N" name, so a super-linear per-ref
	// slowdown at large N shows up as a plain time regression at that N.
	// Oltpvet re-analyzes the whole module per iteration (seconds of
	// type-checking), so like the runner benchmarks it runs at 1x.
	// CheckpointWrite saves one warmed machine per iteration (milliseconds),
	// so ten iterations amortize nothing but keep the run short, and so
	// does HarnessBuild, which builds one paper-scale workload per
	// iteration (a few milliseconds).
	// JobThroughput runs one server job per iteration (tens of
	// milliseconds), and one job's allocations vary with goroutine timing
	// and with garbage collection emptying the fmt and encoding/json
	// sync.Pools: at 1x, allocs/op spread by about 1% between runs of one
	// tree, the whole tolerance, so ten iterations average over ten jobs.
	specs := []benchSpec{
		{"^BenchmarkRunnerSerial$", "1x"},
		{"^BenchmarkSimulationThroughput$", "2000000x"},
		{"^BenchmarkStepScaling$", "1000000x"},
		{"^BenchmarkStep64Serial$", "1x"},
		{"^BenchmarkJobThroughput$", "10x"},
		{"^BenchmarkCheckpointWrite$", "10x"},
		{"^BenchmarkHarnessBuild$", "10x"},
		{"^BenchmarkOltpvet$", "1x"},
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	got, err := collect(ctx, specs, func(ctx context.Context, spec benchSpec) (map[string]Benchmark, error) {
		return runBenchmarks(ctx, spec.pattern, spec.benchtime, *count, *short)
	})
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}

	if *write {
		if interrupted {
			fmt.Fprintln(os.Stderr, "benchdiff: interrupted; refusing to write a partial baseline")
			os.Exit(130)
		}
		b := Baseline{
			Note:  "minimum of -count runs of `go test -bench -benchmem`; regenerate with: go run ./cmd/benchdiff -write",
			Short: *short,
			Count: *count,
		}
		for _, name := range sortedNames(got) {
			b.Benchmarks = append(b.Benchmarks, got[name])
		}
		out, err := json.MarshalIndent(&b, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*baseline, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *baseline, len(b.Benchmarks))
		return
	}

	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: reading baseline: %v\n", err)
		os.Exit(1)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: parsing baseline: %v\n", err)
		os.Exit(1)
	}
	if base.Short != *short {
		fmt.Fprintf(os.Stderr, "benchdiff: baseline recorded with short=%v but check ran with short=%v\n", base.Short, *short)
		os.Exit(2)
	}

	// On interrupt, compare only the baseline entries that finished before
	// the signal — a benchmark the interrupt skipped is not "missing".
	guarded := base.Benchmarks
	if interrupted {
		guarded = collected(base.Benchmarks, got)
	}
	results, failed := compare(guarded, got, *threshold, *allocTol, *allocsOnly)
	if *jsonOut {
		rep := Report{
			Baseline:    *baseline,
			Interrupted: interrupted,
			Compared:    len(guarded),
			Total:       len(base.Benchmarks),
			Failed:      failed,
			Results:     results,
		}
		out, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	} else {
		for _, r := range results {
			fmt.Println(renderResult(r))
		}
		if interrupted {
			fmt.Printf("benchdiff: interrupted; compared %d of %d baseline benchmarks\n",
				len(guarded), len(base.Benchmarks))
		}
		if failed {
			fmt.Println("benchdiff: regression detected")
		} else {
			fmt.Println("benchdiff: within tolerance")
		}
	}
	if failed {
		os.Exit(1)
	}
	if interrupted {
		os.Exit(130)
	}
}

// benchSpec names one benchmark group and its iteration budget.
type benchSpec struct {
	pattern   string
	benchtime string
}

// collect runs every benchmark group in order and merges the observations.
// If ctx is canceled mid-sweep — a developer's ^C or a CI timeout killing
// the in-flight `go test` — it returns everything gathered so far together
// with the context error, so the caller can still report a partial
// comparison instead of discarding minutes of completed work. runOne is
// injected so tests can exercise the interrupt paths without running real
// benchmarks.
func collect(ctx context.Context, specs []benchSpec, runOne func(context.Context, benchSpec) (map[string]Benchmark, error)) (map[string]Benchmark, error) {
	got := make(map[string]Benchmark)
	for _, spec := range specs {
		if err := ctx.Err(); err != nil {
			return got, err
		}
		part, err := runOne(ctx, spec)
		if err != nil {
			// A group killed by the signal reports the kill, not the
			// cancellation; surface the context error so the caller can
			// tell an interrupt from a genuinely broken benchmark.
			if cerr := ctx.Err(); cerr != nil {
				return got, cerr
			}
			return got, err
		}
		if len(part) == 0 {
			return got, fmt.Errorf("no benchmarks matched %q", spec.pattern)
		}
		for name, b := range part {
			got[name] = b
		}
	}
	return got, nil
}

// collected filters the baseline to the entries observed this run,
// preserving baseline order.
func collected(base []Benchmark, got map[string]Benchmark) []Benchmark {
	var have []Benchmark
	for _, b := range base {
		if _, ok := got[b.Name]; ok {
			have = append(have, b)
		}
	}
	return have
}

// Report is the machine-readable form of one -check run (-json).
type Report struct {
	Baseline    string   `json:"baseline"`
	Interrupted bool     `json:"interrupted"`
	Compared    int      `json:"compared"`
	Total       int      `json:"total"`
	Failed      bool     `json:"failed"`
	Results     []Result `json:"results"`
}

// Result is one benchmark's comparison outcome. Every delta is always
// present — a passing benchmark's drift is still data — and a failing one
// names every counter that tripped in Reasons. The B/op delta never trips.
type Result struct {
	Name            string   `json:"name"`
	Status          string   `json:"status"` // "ok", "fail", or "missing"
	NsPerOp         float64  `json:"ns_per_op"`
	BaseNsPerOp     float64  `json:"base_ns_per_op"`
	TimeDeltaPct    float64  `json:"time_delta_pct"`
	AllocsPerOp     uint64   `json:"allocs_per_op"`
	BaseAllocsPerOp uint64   `json:"base_allocs_per_op"`
	AllocDeltaPct   float64  `json:"alloc_delta_pct"`
	BytesPerOp      uint64   `json:"bytes_per_op"`
	BaseBytesPerOp  uint64   `json:"base_bytes_per_op"`
	BytesDeltaPct   float64  `json:"bytes_delta_pct"`
	Reasons         []string `json:"reasons,omitempty"`
}

// compare checks fresh observations against the baseline benchmarks,
// returning one Result per baseline entry and whether anything regressed.
// threshold is the allowed ns/op regression in percent; allocTol the
// allowed fractional allocs/op regression; allocsOnly skips the
// machine-dependent time comparison.
func compare(base []Benchmark, got map[string]Benchmark, threshold, allocTol float64, allocsOnly bool) ([]Result, bool) {
	var results []Result
	failed := false
	for _, b := range base {
		g, ok := got[b.Name]
		if !ok {
			results = append(results, Result{
				Name: b.Name, Status: "missing",
				BaseNsPerOp: b.NsPerOp, BaseAllocsPerOp: b.AllocsPerOp, BaseBytesPerOp: b.BytesPerOp,
				Reasons: []string{"benchmark missing from this run"},
			})
			failed = true
			continue
		}
		timeRatio := g.NsPerOp / b.NsPerOp
		allocRatio := ratio(g.AllocsPerOp, b.AllocsPerOp)
		r := Result{
			Name:    b.Name,
			Status:  "ok",
			NsPerOp: g.NsPerOp, BaseNsPerOp: b.NsPerOp,
			TimeDeltaPct:    100 * (timeRatio - 1),
			AllocsPerOp:     g.AllocsPerOp,
			BaseAllocsPerOp: b.AllocsPerOp,
			AllocDeltaPct:   100 * (allocRatio - 1),
			BytesPerOp:      g.BytesPerOp,
			BaseBytesPerOp:  b.BytesPerOp,
			BytesDeltaPct:   100 * (ratio(g.BytesPerOp, b.BytesPerOp) - 1),
		}
		if allocRatio > 1+allocTol {
			r.Reasons = append(r.Reasons, fmt.Sprintf("allocs/op %d exceeds baseline %d beyond %.1f%% tolerance",
				g.AllocsPerOp, b.AllocsPerOp, 100*allocTol))
		}
		if !allocsOnly && timeRatio > 1+threshold/100 {
			r.Reasons = append(r.Reasons, fmt.Sprintf("ns/op %+.1f%% exceeds %.0f%% threshold",
				r.TimeDeltaPct, threshold))
		}
		if len(r.Reasons) > 0 {
			r.Status = "fail"
			failed = true
		}
		results = append(results, r)
	}
	return results, failed
}

// renderResult is the human form of one comparison outcome: status, the
// three counters with their baselines and deltas, and any failure reasons.
func renderResult(r Result) string {
	if r.Status == "missing" {
		return fmt.Sprintf("FAIL %s: benchmark missing from this run", r.Name)
	}
	status := "ok  "
	if r.Status == "fail" {
		status = "FAIL"
	}
	line := fmt.Sprintf("%s %s: %.0f ns/op (baseline %.0f, %+.1f%%), %d allocs/op (baseline %d, %+.1f%%), %d B/op (baseline %d, %+.1f%%)",
		status, r.Name, r.NsPerOp, r.BaseNsPerOp, r.TimeDeltaPct,
		r.AllocsPerOp, r.BaseAllocsPerOp, r.AllocDeltaPct,
		r.BytesPerOp, r.BaseBytesPerOp, r.BytesDeltaPct)
	if len(r.Reasons) > 0 {
		line += " [" + strings.Join(r.Reasons, "; ") + "]"
	}
	return line
}

// runBenchmarks shells out to `go test` and returns the best observation per
// benchmark (name with the -GOMAXPROCS suffix stripped). The context kills
// the child process on cancellation, so an interrupted sweep stops promptly
// instead of finishing a minutes-long benchmark nobody will read.
func runBenchmarks(ctx context.Context, pattern, benchtime string, count int, short bool) (map[string]Benchmark, error) {
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(count), "."}
	if short {
		args = append(args, "-short")
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	return parseBench(string(out))
}

// benchLine matches a result line: the name, the iteration count, then
// value/unit pairs, e.g.
//
//	BenchmarkRunnerSerial-16  1  951630154 ns/op  205174040 B/op  29821 allocs/op
//
// Units a benchmark reports with b.ReportMetric (ckpt-bytes, say) sit
// between ns/op and B/op.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+((?:\s+[\d.e+-]+ \S+)+)$`)

func parseBench(out string) (map[string]Benchmark, error) {
	res := make(map[string]Benchmark)
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		b := Benchmark{Name: m[1], NsPerOp: -1}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			var err error
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp, err = strconv.ParseFloat(fields[i], 64)
			case "B/op":
				b.BytesPerOp, err = strconv.ParseUint(fields[i], 10, 64)
			case "allocs/op":
				b.AllocsPerOp, err = strconv.ParseUint(fields[i], 10, 64)
			}
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %w", line, err)
			}
		}
		if b.NsPerOp < 0 {
			continue
		}
		if prev, ok := res[b.Name]; ok {
			// Keep the per-field minimum: noise is strictly additive.
			if prev.NsPerOp < b.NsPerOp {
				b.NsPerOp = prev.NsPerOp
			}
			if prev.BytesPerOp < b.BytesPerOp {
				b.BytesPerOp = prev.BytesPerOp
			}
			if prev.AllocsPerOp < b.AllocsPerOp {
				b.AllocsPerOp = prev.AllocsPerOp
			}
		}
		res[b.Name] = b
	}
	return res, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return 2 // any allocation where the baseline had none is a regression
	}
	return float64(a) / float64(b)
}

func sortedNames(m map[string]Benchmark) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
