package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"time"
)

// The workloads run the commands with their default settings; the only
// flags set are the machine shape and the protocol lengths.
// figures and oltpsim take no seed, so their end-to-end runs always use
// seed 0, the seed figures_output.txt pins.
var (
	// wideMachine is the 64-node fully integrated machine: dispatch and
	// directory traffic dominate.
	wideMachine = machine{procs: 64, level: "full", l2: "2M", assoc: 8}
	wideWarmup  = uint64(3000)
	wideMeasure = uint64(4000)

	// figureLadder is the traced stand-in for the figure sweep: Figure 10's
	// integration ladder at 1 and 8 CPUs.
	figureLadder = []machine{
		{1, "base", "8M", 1}, {1, "l2", "2M", 8}, {1, "l2mc", "2M", 8},
		{8, "base", "8M", 1}, {8, "l2", "2M", 8}, {8, "l2mc", "2M", 8}, {8, "full", "2M", 8},
	}
)

func machineArgs(m machine) []string {
	return []string{"-procs", strconv.Itoa(m.procs), "-level", m.level, "-l2", m.l2, "-assoc", strconv.Itoa(m.assoc)}
}

// cliWorkload runs one command line repeatedly until the run's time is up,
// after timing its set-up: the same command with nothing to simulate.
type cliWorkload struct {
	bin       string
	args      []string
	setupArgs []string
	setupReps int
	// configs is how many machine configurations one invocation runs.
	configs int
	// check validates one invocation's output and returns the transactions
	// it simulated and its paper-fidelity count (1 where the output carries
	// no paper comparison).
	check func(out []byte) (simTxns uint64, fidelity float64, err error)
}

func (w *cliWorkload) measure(ctx context.Context, e *env) (result, error) {
	fmt.Fprintf(os.Stderr, "perfbench: %s takes no seed; running seed 0 (seed %d applies to the traced run)\n", w.bin, e.seed)
	var res result
	var setups []float64
	for i := 0; i < w.setupReps; i++ {
		p := runProc(ctx, e.binary(w.bin), w.setupArgs...)
		res.Attempted += w.configs
		if p.err != nil {
			res.fail(w.configs, "set-up: %v", p.err)
			continue
		}
		setups = append(setups, p.wall.Seconds())
	}
	setup := median(setups)

	var walls, rates, rss, fidelity []float64
	var first []byte
	start := time.Now()
	var last time.Duration
	for runs := 0; runs == 0 || (time.Since(start)+last <= e.seconds && ctx.Err() == nil); runs++ {
		p := runProc(ctx, e.binary(w.bin), w.args...)
		last = p.wall
		res.Attempted += w.configs
		txns, fid, err := w.check(p.stdout)
		switch {
		case p.err != nil:
			err = p.err
		case err == nil && first != nil && !bytes.Equal(p.stdout, first):
			err = errors.New("output differs from the first invocation's")
		}
		if first == nil {
			first = p.stdout
		}
		if err != nil {
			res.fail(w.configs, "%s: %v", w.bin, err)
			continue
		}
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(txns)/(p.wall.Seconds()-setup))
		rss = append(rss, p.rssMB)
		fidelity = append(fidelity, fid)
	}
	var jobsPerS float64
	if len(walls) > 0 {
		jobsPerS = 1 / mean(walls)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d set-up runs %.3f s, %d measured invocations %.3f s\n", len(setups), setups, len(walls), walls)
	res.set("setup_s", setup, "s")
	res.set("wall_s", median(walls), "s")
	res.set("sim_txns_per_s", median(rates), "txn/s")
	res.set("peak_rss_mb", median(rss), "MB")
	res.set("fidelity_pass", median(fidelity), "count")
	res.set("success_rate", 1-float64(res.Failed)/float64(max(res.Attempted, 1)), "fraction")
	res.set("jobs_per_s", jobsPerS, "1/s")
	res.set("job_p50_ms", 1000*median(walls), "ms")
	res.set("job_p90_ms", 1000*quantile(walls, 0.9), "ms")
	return res, nil
}

func measurePaperFigures(ctx context.Context, e *env) (result, error) {
	golden, err := os.ReadFile("figures_output.txt")
	if err != nil {
		return result{}, err
	}
	s, err := newRunner(protocol{})
	if err != nil {
		return result{}, err
	}
	warmup, measure := s.lengths()
	args := []string{"-detail", "-compare"}
	w := &cliWorkload{
		bin:       "figures",
		args:      args,
		setupArgs: append(args, "-warmup", "0", "-txns", "0"),
		setupReps: 3,
		configs:   barCount(golden),
		check: func(out []byte) (uint64, float64, error) {
			if !bytes.Equal(out, golden) {
				return 0, 0, errors.New("output differs from figures_output.txt")
			}
			return uint64(barCount(out)) * (warmup + measure), fidelityPass(out), nil
		},
	}
	return w.measure(ctx, e)
}

func measureWideMachine(ctx context.Context, e *env) (result, error) {
	args := machineArgs(wideMachine)
	w := &cliWorkload{
		bin:       "oltpsim",
		args:      append(args, "-warmup", fmt.Sprint(wideWarmup), "-txns", fmt.Sprint(wideMeasure)),
		setupArgs: append(args, "-warmup", "0", "-txns", "0"),
		setupReps: 9,
		configs:   1,
		check: func(out []byte) (uint64, float64, error) {
			txns, err := checkSummary(out)
			return wideWarmup + txns, 1, err
		},
	}
	return w.measure(ctx, e)
}

// barCount counts the figure bars in figures -detail output: one diagnostic
// row per simulated configuration.
func barCount(out []byte) int { return bytes.Count(out, []byte(" cyc/txn ")) }

var scoreRE = regexp.MustCompile(`(?m)^score: (\d+)/(\d+) within tolerance$`)

// fidelityPass sums the paper comparisons within tolerance over every
// figure's score line.
func fidelityPass(out []byte) float64 {
	var n float64
	for _, m := range scoreRE.FindAllSubmatch(out, -1) {
		v, _ := strconv.Atoi(string(m[1])) // the pattern admits digits only
		n += float64(v)
	}
	return n
}

var (
	totalRE     = regexp.MustCompile(`(?m)^\S.* (\d+) cycles/txn  \((\d+) txns\)$`)
	breakdownRE = regexp.MustCompile(`breakdown: CPU ([\d.]+)%  L2Hit ([\d.]+)%  Local ([\d.]+)%  Remote ([\d.]+)%  Dirty ([\d.]+)%`)
	missesRE    = regexp.MustCompile(`L2 misses/txn: ([\d.]+) \(I ([\d.]+), D ([\d.]+); local (\d+), 2-hop (\d+), 3-hop (\d+)\)`)
)

// checkSummary applies the conservation checks to an oltpsim summary and
// returns its measured transactions: the breakdown shares sum to 100, and
// local + 2-hop + 3-hop misses, like I + D, give the misses per transaction,
// each within the rounding of the printed figures.
func checkSummary(out []byte) (uint64, error) {
	t := totalRE.FindSubmatch(out)
	b := breakdownRE.FindSubmatch(out)
	m := missesRE.FindSubmatch(out)
	if t == nil || b == nil || m == nil {
		return 0, errors.New("summary lines missing")
	}
	num := func(s []byte) float64 {
		v, _ := strconv.ParseFloat(string(s), 64) // the patterns admit numbers only
		return v
	}
	txns := uint64(num(t[2]))
	if txns == 0 {
		return 0, errors.New("no measured transactions")
	}
	var shares float64
	for _, s := range b[1:] {
		shares += num(s)
	}
	if math.Abs(shares-100) > 5*0.05+1e-9 {
		return txns, fmt.Errorf("breakdown shares sum to %.1f%%", shares)
	}
	perTxn := num(m[1])
	if cats := (num(m[4]) + num(m[5]) + num(m[6])) / float64(txns); math.Abs(cats-perTxn) > 0.05+1e-9 {
		return txns, fmt.Errorf("local+2-hop+3-hop give %.3f misses/txn, summary says %.1f", cats, perTxn)
	}
	if id := num(m[2]) + num(m[3]); math.Abs(id-perTxn) > 0.15+1e-9 {
		return txns, fmt.Errorf("I+D give %.1f misses/txn, summary says %.1f", id, perTxn)
	}
	return txns, nil
}
