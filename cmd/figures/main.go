// Command figures regenerates the paper's evaluation figures. Each figure
// prints its normalized execution-time breakdown and (where the paper shows
// one) its normalized L2 miss breakdown, in the same bar order as the paper.
//
//	figures            # all figures, paper-fidelity protocol
//	figures -quick     # scaled-down database, short runs
//	figures -fig 7     # just Figure 7
//	figures -parallel  # run whole figures concurrently (GOMAXPROCS workers)
//	figures -j 4       # same, with an explicit worker count
//
// Within one figure the bars already fan out across a worker pool
// (experiments.Options.Workers); -parallel/-j additionally runs the figure
// runners themselves concurrently, buffering each figure's rendered report
// so interleaved goroutines never corrupt the output. Results are
// bit-identical to a serial run and print in the paper's order.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

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
		parallel = flag.Bool("parallel", false, "run figures concurrently (GOMAXPROCS workers)")
		jobs     = flag.Int("j", 0, "concurrent figure runners (implies -parallel; 0 = GOMAXPROCS)")
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

	if *jobs < 0 {
		fmt.Fprintf(os.Stderr, "figures: -j must be >= 0 (got %d)\n", *jobs)
		flag.Usage()
		os.Exit(2)
	}

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

	figWorkers := 1
	if *parallel || *jobs > 0 {
		figWorkers = *jobs
		if figWorkers == 0 {
			figWorkers = runtime.GOMAXPROCS(0)
		}
	}

	want := func(id string) bool { return *fig == "all" || *fig == id }

	if want("3") {
		printFigure3()
	}

	type runner struct {
		id     string
		run    func(experiments.Options) experiments.Figure
		misses bool
	}
	runners := []runner{
		{"5", experiments.Fig05, true},
		{"6", experiments.Fig06, true},
		{"7", experiments.Fig07, true},
		{"8", experiments.Fig08, true},
		{"10", experiments.Fig10Uni, false},
		{"10", experiments.Fig10MP, false},
		{"11", experiments.Fig11, true},
		{"12", experiments.Fig12Small, false},
		{"12", experiments.Fig12Large, false},
		{"13", experiments.Fig13Uni, false},
		{"13", experiments.Fig13MP, false},
	}

	var selected []runner
	for _, r := range runners {
		if want(r.id) {
			selected = append(selected, r)
		}
	}
	if len(selected) == 0 && !want("3") {
		fmt.Fprintf(os.Stderr, "figures: unknown figure %q\n", *fig)
		os.Exit(2)
	}

	// Each selected figure renders into its own buffer; reports print in
	// presentation order once ready, so a fast later figure never interleaves
	// with a slow earlier one.
	reports := make([]string, len(selected))
	render := func(i int) {
		f := selected[i].run(opt)
		var b strings.Builder
		fmt.Fprintln(&b, f.RenderExec())
		if selected[i].misses {
			fmt.Fprintln(&b, f.RenderMisses())
		}
		if *detail {
			fmt.Fprintln(&b, f.RenderDetail())
		}
		if *compare {
			if rows := experiments.Compare(&f); len(rows) > 0 {
				fmt.Fprintln(&b, experiments.RenderComparison(rows))
			}
		}
		fmt.Fprintln(&b, strings.Repeat("-", 72))
		reports[i] = b.String()
	}

	if figWorkers <= 1 || len(selected) == 1 {
		for i := range selected {
			render(i)
			fmt.Print(reports[i])
		}
		return
	}

	if figWorkers > len(selected) {
		figWorkers = len(selected)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(figWorkers)
	for g := 0; g < figWorkers; g++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				render(i)
			}
		}()
	}
	for i := range selected {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i := range reports {
		fmt.Print(reports[i])
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
