// Command oltpsim runs one machine configuration against the OLTP workload
// and prints its execution-time breakdown and L2 miss profile.
//
// Examples:
//
//	oltpsim -procs 8 -level base -l2 8M -assoc 1
//	oltpsim -procs 1 -level l2 -l2 2M -assoc 8
//	oltpsim -procs 8 -level full -l2 2M -assoc 8 -ooo
//	oltpsim -procs 8 -level full -l2 1M -assoc 4 -rac 8M -repl
//	oltpsim -procs 8 -level full -l2 2M -assoc 8 -cores 2   # CMP
//	oltpsim -procs 8 -level full -l2 2M -assoc 8 -scenario examples/burst.json -timeline out.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"oltpsim/internal/cli"
	"oltpsim/internal/core"
	"oltpsim/internal/experiments"
	"oltpsim/internal/prof"
	"oltpsim/internal/scenario"
	"oltpsim/internal/stats"
)

func main() {
	var (
		spec       cli.MachineSpec
		warmup     = flag.Uint64("warmup", 3000, "warmup transactions")
		measure    = flag.Uint64("txns", 2000, "measured transactions")
		quick      = flag.Bool("quick", false, "scaled-down database for fast runs")
		checkpoint = flag.String("checkpoint", "", "write a machine-state checkpoint to this file (at end of warmup, and during measurement with -checkpoint-every)")
		ckptEvery  = flag.Uint64("checkpoint-every", 0, "with -checkpoint, rewrite the checkpoint every N committed transactions (during warmup and measurement)")
		resume     = flag.String("resume", "", "resume from a checkpoint file written with the same configuration flags")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		scenFile   = flag.String("scenario", "", "run a time-varying workload profile from this JSON file instead of the fixed mix (-txns is ignored; phases are segmented in the output)")
		timeline   = flag.String("timeline", "", "with -scenario, write the per-phase timeline to this file (.json for JSON, anything else CSV)")
	)
	flag.IntVar(&spec.Procs, "procs", 1, "processor count (1 or 8 in the paper)")
	flag.StringVar(&spec.Level, "level", "base", "integration level: cons|base|l2|l2mc|full")
	flag.StringVar(&spec.L2, "l2", "8M", "L2 size (e.g. 1M, 1.25M, 2M, 8M)")
	flag.IntVar(&spec.Assoc, "assoc", 1, "L2 associativity")
	flag.BoolVar(&spec.DRAM, "dram", false, "use on-chip DRAM for an integrated L2")
	flag.BoolVar(&spec.OOO, "ooo", false, "out-of-order processor model")
	flag.StringVar(&spec.RACSize, "rac", "", "add a remote access cache of this size (e.g. 8M)")
	flag.BoolVar(&spec.Repl, "repl", false, "replicate code pages at every node")
	flag.IntVar(&spec.Cores, "cores", 1, "cores per chip (CMP extension; 1 = paper)")
	flag.Parse()

	if *ckptEvery > 0 && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "oltpsim: -checkpoint-every requires -checkpoint")
		os.Exit(2)
	}
	if *timeline != "" && *scenFile == "" {
		fmt.Fprintln(os.Stderr, "oltpsim: -timeline requires -scenario")
		os.Exit(2)
	}

	cfg, err := cli.Build(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oltpsim:", err)
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oltpsim:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "oltpsim:", err)
			os.Exit(1)
		}
	}()

	opt := experiments.DefaultOptions()
	opt.WarmupTxns = *warmup
	opt.MeasureTxns = *measure
	opt.Quick = *quick
	if *scenFile != "" {
		sched, err := loadSchedule(*scenFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oltpsim:", err)
			os.Exit(2)
		}
		opt.Scenario = sched
	}

	printConfig := func() {
		fmt.Printf("configuration: %s (%s, %d processor(s))\n", cfg.Name, cfg.Level, cfg.Processors)
		lat := cfg.Latencies()
		fmt.Printf("latencies: L2 hit %d, local %d, remote %d, remote dirty %d\n",
			lat.L2Hit, lat.Local, lat.Remote, lat.RemoteDirty)
	}

	if opt.Scenario != nil {
		sr, err := runScenario(opt, cfg, *resume, *checkpoint, *ckptEvery)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oltpsim:", err)
			os.Exit(1)
		}
		printConfig()
		fmt.Printf("scenario: %s (%d phase(s), %d transactions)\n",
			opt.Scenario.Name(), opt.Scenario.NumPhases(), opt.Scenario.TotalTxns())
		for i := range sr.Phases {
			p := &sr.Phases[i]
			fmt.Printf("phase %-12s %8d txns  %10.1f cycles/txn  %8.2f L2 misses/txn\n",
				p.Result.Name, p.Result.Txns, p.Result.CyclesPerTxn(), p.Result.MissesPerTxn())
		}
		fmt.Print(sr.Total.Summary())
		if *timeline != "" {
			if err := writeTimeline(*timeline, &sr); err != nil {
				fmt.Fprintln(os.Stderr, "oltpsim:", err)
				os.Exit(1)
			}
		}
		return
	}

	var res stats.RunResult
	if *checkpoint == "" && *resume == "" {
		res = opt.Run(cfg)
	} else {
		res, err = runCheckpointed(opt, cfg, *resume, *checkpoint, *ckptEvery)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oltpsim:", err)
			os.Exit(1)
		}
	}
	printConfig()
	fmt.Print(res.Summary())
}

// loadSchedule decodes and compiles a scenario profile file.
func loadSchedule(path string) (*scenario.Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	prof, err := scenario.DecodeProfile(f)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", path, err)
	}
	return prof.Compile()
}

// runScenario executes a phased run, plain or through the checkpoint
// protocol when -checkpoint/-resume are set.
func runScenario(opt experiments.Options, cfg core.Config, resumePath, checkpointPath string, every uint64) (experiments.ScenarioResult, error) {
	if checkpointPath == "" && resumePath == "" {
		return opt.RunScenario(cfg), nil
	}
	cr, err := checkpointIO(resumePath, checkpointPath, every)
	if err != nil {
		return experiments.ScenarioResult{}, err
	}
	sr, _, err := opt.RunScenarioCheckpointed(cfg, cr)
	if err != nil && resumePath != "" {
		err = fmt.Errorf("resume %s: %w", resumePath, err)
	}
	return sr, err
}

// writeTimeline writes the per-phase timeline, JSON for .json paths and CSV
// otherwise.
func writeTimeline(path string, sr *experiments.ScenarioResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = experiments.WriteTimelineJSON(f, sr)
	} else {
		err = experiments.WriteTimelineCSV(f, sr)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runCheckpointed executes the warmup/measure protocol with checkpoint
// and/or resume through experiments.RunCheckpointed (shared with the
// oltpserver job executor). The step sequence is identical to
// experiments.Options.Run (checkpoint writes are read-only), so a resumed
// run's output is bit-identical to an uninterrupted one.
func runCheckpointed(opt experiments.Options, cfg core.Config, resumePath, checkpointPath string, every uint64) (stats.RunResult, error) {
	cr, err := checkpointIO(resumePath, checkpointPath, every)
	if err != nil {
		return stats.RunResult{}, err
	}
	res, _, err := opt.RunCheckpointed(cfg, cr)
	if err != nil && resumePath != "" {
		err = fmt.Errorf("resume %s: %w", resumePath, err)
	}
	return res, err
}

// checkpointIO wires file paths into a CheckpointRun.
func checkpointIO(resumePath, checkpointPath string, every uint64) (experiments.CheckpointRun, error) {
	var cr experiments.CheckpointRun
	if resumePath != "" {
		data, err := os.ReadFile(resumePath)
		if err != nil {
			return cr, err
		}
		cr.Resume = data
	}
	if checkpointPath != "" {
		cr.Every = every
		cr.Write = func(data []byte) error {
			return os.WriteFile(checkpointPath, data, 0o644)
		}
	}
	return cr, nil
}
