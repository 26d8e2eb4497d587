// Command tracedump prints a window of the OLTP reference stream as CSV,
// for inspecting what the workload generator actually emits: kinds, kernel
// attribution, dependence chains, and the NUMA home of every line. This is
// the debugging lens used while calibrating the workload against the
// paper's characteristics.
//
//	tracedump -cpus 2 -n 2000 -skip 100000 > trace.csv
//
// Large windows with a deep -skip can run for minutes, so SIGINT/SIGTERM
// are honored inside the dump loop: the rows emitted so far are flushed as
// a well-formed CSV prefix and the tool exits 130. A CI timeout therefore
// leaves a usable partial trace instead of an empty file.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"oltpsim/internal/kernel"
	"oltpsim/internal/oltp"
)

func main() {
	var (
		cpus  = flag.Int("cpus", 1, "machine size")
		cpu   = flag.Int("cpu", 0, "which CPU's stream to dump")
		n     = flag.Int("n", 1000, "references to dump")
		skip  = flag.Int("skip", 0, "references to skip first (move past cold start)")
		quick = flag.Bool("quick", true, "scaled-down database")
	)
	flag.Parse()

	if err := validate(*cpus, *cpu, *n, *skip); err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := bufio.NewWriter(os.Stdout)
	if err := run(ctx, w, *cpus, *cpu, *n, *skip, *quick); err != nil {
		w.Flush()
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "tracedump: interrupted; partial dump flushed")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(2)
	}
	w.Flush()
}

// validate rejects flag combinations the dump loop would misinterpret.
func validate(cpus, cpu, n, skip int) error {
	if cpus < 1 {
		return fmt.Errorf("-cpus must be >= 1 (got %d)", cpus)
	}
	if cpu < 0 || cpu >= cpus {
		return fmt.Errorf("-cpu must be in [0,%d) (got %d)", cpus, cpu)
	}
	if n < 0 {
		return fmt.Errorf("-n must be >= 0 (got %d)", n)
	}
	if skip < 0 {
		return fmt.Errorf("-skip must be >= 0 (got %d)", skip)
	}
	return nil
}

// run drives a fresh harness and writes n references of the chosen CPU's
// stream as CSV. The output is a pure function of the arguments: the harness
// is seeded deterministically and CPUs advance in global time order.
// Cancelling ctx stops the loop between references and returns ctx's error;
// everything already written is a valid CSV prefix of the full dump.
func run(ctx context.Context, out io.Writer, cpus, cpu, n, skip int, quick bool) error {
	p := oltp.DefaultParams(cpus)
	if quick {
		p = oltp.TestParams(cpus)
	}
	h, err := oltp.NewHarness(p)
	if err != nil {
		return err
	}

	fmt.Fprintln(out, "seq,cpu,kind,addr,line,home,kernel,dep,instrs")

	clocks := make([]uint64, cpus)
	emitted, seen := 0, 0
	for emitted < n {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Drive every CPU in global time order (commits depend on the log
		// writer's progress).
		c := 0
		for i := 1; i < cpus; i++ {
			if clocks[i] < clocks[c] {
				c = i
			}
		}
		r, st, wake := h.Next(c, clocks[c])
		switch st {
		case kernel.StatusRef:
			clocks[c] += uint64(r.Instrs()) + 1
			if c != cpu {
				continue
			}
			seen++
			if seen <= skip {
				continue
			}
			fmt.Fprintf(out, "%d,%d,%s,%#x,%#x,%d,%t,%t,%d\n",
				seen, c, r.Kind(), r.Addr(), r.Line(),
				h.HomeOf(r.Line()), r.Kernel(), r.DepPrev(), r.Instrs())
			emitted++
		case kernel.StatusIdle:
			clocks[c] = wake
		default:
			return nil
		}
	}
	return nil
}
