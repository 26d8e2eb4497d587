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
//	oltpsim -procs 8 -level full -l2 2M -assoc 8 -scenario examples/scenarios/burst.json -timeline out.csv
//	oltpsim -procs 8 -level full -l2 2M -assoc 8 -scenario examples/scenarios/dss.json   # DSS scans
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"oltpsim/internal/cli"
	"oltpsim/internal/experiments"
	"oltpsim/internal/prof"
)

func main() {
	var (
		spec       cli.MachineSpec
		warmup     = flag.Uint64("warmup", 3000, "warmup transactions")
		measure    = flag.Uint64("txns", 2000, "measured transactions")
		quick      = flag.Bool("quick", false, "scaled-down database for fast runs")
		checkpoint = flag.String("checkpoint", "", "write a machine-state checkpoint to this file (at end of warmup, and during measurement with -checkpoint-every)")
		ckptEvery  = flag.Uint64("checkpoint-every", 0, "with -checkpoint, rewrite the checkpoint every N committed transactions (during warmup and measurement)")
		resume     = flag.String("resume", "", "resume from a checkpoint file written with the same configuration flags; a checkpoint written under a different protocol (-warmup, -quick, -scenario, or -txns once measuring) is refused")
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
		sched, err := cli.LoadSchedule(*scenFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oltpsim:", err)
			os.Exit(2)
		}
		opt.Scenario = sched
	}

	var cr experiments.CheckpointRun
	if *resume != "" {
		if cr.Resume, err = os.ReadFile(*resume); err != nil {
			fmt.Fprintln(os.Stderr, "oltpsim:", err)
			os.Exit(1)
		}
	}
	if *checkpoint != "" {
		cr.Every = *ckptEvery
		cr.Write = func(ck io.WriterTo) error { return cli.WriteFileAtomic(*checkpoint, ck) }
	}
	sr, _, err := opt.Execute(cfg, cr)
	if err != nil {
		if *resume != "" {
			err = fmt.Errorf("resume %s: %w", *resume, err)
		}
		fmt.Fprintln(os.Stderr, "oltpsim:", err)
		os.Exit(1)
	}
	fmt.Printf("configuration: %s (%s, %d processor(s))\n", cfg.Name, cfg.Level, cfg.Processors)
	lat := cfg.Latencies()
	fmt.Printf("latencies: L2 hit %d, local %d, remote %d, remote dirty %d\n",
		lat.L2Hit, lat.Local, lat.Remote, lat.RemoteDirty)
	if opt.Scenario != nil {
		fmt.Printf("scenario: %s (%d phase(s), %d transactions)\n",
			opt.Scenario.Name(), opt.Scenario.NumPhases(), opt.Scenario.TotalTxns())
		for i := range sr.Phases {
			p := &sr.Phases[i]
			fmt.Printf("phase %-12s %8d txns  %10.1f cycles/txn  %8.2f L2 misses/txn\n",
				p.Result.Name, p.Result.Txns, p.Result.CyclesPerTxn(), p.Result.MissesPerTxn())
		}
	}
	fmt.Print(sr.Total.Summary())
	if *timeline != "" {
		if err := writeTimeline(*timeline, &sr); err != nil {
			fmt.Fprintln(os.Stderr, "oltpsim:", err)
			os.Exit(1)
		}
	}
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
