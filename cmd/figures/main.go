// Command figures regenerates the paper's evaluation figures. Each figure
// prints its normalized execution-time breakdown and (where the paper shows
// one) its normalized L2 miss breakdown, in the same bar order as the paper.
//
//	figures            # all figures, paper-fidelity protocol
//	figures -quick     # scaled-down database, short runs
//	figures -fig 7     # just Figure 7
//
// The selected figures run as one sweep: every bar goes through a single
// experiments.RunFigures call, whose worker pool (GOMAXPROCS goroutines)
// stays full across figure boundaries. The figures print in the paper's
// order once the sweep is done; results are bit-identical to a serial run.
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
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "scaled-down database and short runs")
		fig      = flag.String("fig", "all", "which figure: 3,5,6,7,8,10,11,12,13 or all")
		warmup   = flag.Int64("warmup", -1, "override warmup transactions (0 is honored; default: protocol value)")
		measure  = flag.Int64("txns", -1, "override measured transactions (0 is honored; default: protocol value)")
		detail   = flag.Bool("detail", false, "print per-bar diagnostics")
		compare  = flag.Bool("compare", false, "score each figure against the paper's published values")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		scenFile = flag.String("scenario", "", "render the timeline figure family for this scenario profile (integration ladder vs. phase) instead of the paper figures")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
	}()

	opt := experiments.DefaultOptions()
	if *quick {
		opt = experiments.QuickOptions()
	}
	// flag.Visit distinguishes "flag absent" from an explicit -warmup 0 /
	// -txns 0, which are legitimate requests (e.g. measuring cold caches, or
	// warmup-only runs) the old `> 0` guard silently ignored. Explicit
	// negative values — including the -1 default — are usage errors.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "warmup":
			if *warmup < 0 {
				fmt.Fprintf(os.Stderr, "figures: -warmup must be >= 0 (got %d)\n", *warmup)
				flag.Usage()
				os.Exit(2)
			}
			opt.WarmupTxns = uint64(*warmup)
		case "txns":
			if *measure < 0 {
				fmt.Fprintf(os.Stderr, "figures: -txns must be >= 0 (got %d)\n", *measure)
				flag.Usage()
				os.Exit(2)
			}
			opt.MeasureTxns = uint64(*measure)
		}
	})

	// The timeline family replaces the paper figures: run the integration
	// ladder under the scenario and render normalized cost per phase. The
	// default figure set (and its golden output) is untouched.
	if *scenFile != "" {
		sched, err := cli.LoadSchedule(*scenFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(2)
		}
		opt.Scenario = sched
		tf := experiments.RunTimelineLadder(opt, 8, true)
		fmt.Print(tf.Render())
		fmt.Println(strings.Repeat("-", 72))
		return
	}

	want := func(id string) bool { return *fig == "all" || *fig == id }

	if want("3") {
		printFigure3()
	}

	var selected []experiments.FigureSpec
	for _, spec := range experiments.PaperFigures() {
		if want(spec.Fig) {
			selected = append(selected, spec)
		}
	}
	if len(selected) == 0 && !want("3") {
		fmt.Fprintf(os.Stderr, "figures: unknown figure %q\n", *fig)
		os.Exit(2)
	}

	for i, f := range experiments.RunFigures(opt, selected) {
		fmt.Println(f.RenderExec())
		if selected[i].Misses {
			fmt.Println(f.RenderMisses())
		}
		if *detail {
			fmt.Println(f.RenderDetail())
		}
		if *compare {
			if rows := experiments.Compare(&f); len(rows) > 0 {
				fmt.Println(experiments.RenderComparison(rows))
			}
		}
		fmt.Println(strings.Repeat("-", 72))
	}
}

func printFigure3() {
	fmt.Println("Figure 3 — Memory latencies for different configurations (cycles @ 1 GHz)")
	fmt.Printf("%-28s %6s %6s %7s %7s\n", "configuration", "L2Hit", "Local", "Remote", "Dirty")
	for _, row := range core.FigureThree() {
		fmt.Printf("%-28s %6d %6d %7d %7d\n",
			row.Label, row.Lat.L2Hit, row.Lat.Local, row.Lat.Remote, row.Lat.RemoteDirty)
	}
	fmt.Println(strings.Repeat("-", 72))
}
