// dss_contrast reproduces the paper's framing claim (Section 1): decision
// support is "relatively insensitive to memory system performance", which is
// exactly why the paper studies OLTP. The example runs the same chip-level
// integration ladder on both workloads: OLTP is the steady TPC-B mix, DSS
// the scan-only profile examples/scenarios/dss.json over the same database
// and engine. Run it from the repository root:
//
//	go run ./examples/dss_contrast
package main

import (
	"fmt"
	"os"

	"oltpsim"
)

func main() {
	base := oltpsim.BaseConfig(8, 8*oltpsim.MB, 1)
	full := oltpsim.FullIntegrationConfig(8, 2*oltpsim.MB, 8)
	cfgs := []oltpsim.Config{base, full}

	oltpOpt := oltpsim.QuickOptions()
	oltpOpt.MeasureTxns = 600
	oltpRes := oltpOpt.RunMany(cfgs)

	dssOpt := oltpsim.QuickOptions()
	sched, err := oltpsim.LoadSchedule("examples/scenarios/dss.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dss_contrast:", err)
		os.Exit(1)
	}
	dssOpt.Scenario = sched
	dssRes := dssOpt.RunMany(cfgs)

	fmt.Println("Chip-level integration: Base (off-chip, 8M 1-way) -> Full (on-chip 2M 8-way):")
	fmt.Printf("  OLTP: %7.0f -> %7.0f cycles/txn   speedup %.2fx\n",
		oltpRes[0].CyclesPerTxn(), oltpRes[1].CyclesPerTxn(), oltpRes[1].Speedup(&oltpRes[0]))
	fmt.Printf("  DSS:  %7.0f -> %7.0f cycles/scan  speedup %.2fx\n",
		dssRes[0].CyclesPerTxn(), dssRes[1].CyclesPerTxn(), dssRes[1].Speedup(&dssRes[0]))

	oltpFull, dssFull := &oltpRes[1], &dssRes[1]
	fmt.Printf("\nmiss profile under full integration (per work unit):\n")
	fmt.Printf("  OLTP: %5.1f misses (%.0f%% dirty 3-hop)\n", oltpFull.MissesPerTxn(),
		100*float64(oltpFull.Miss.RemoteDirty())/float64(max(1, oltpFull.Miss.Total())))
	fmt.Printf("  DSS:  %5.1f misses (%.0f%% dirty 3-hop)\n", dssFull.MissesPerTxn(),
		100*float64(dssFull.Miss.RemoteDirty())/float64(max(1, dssFull.Miss.Total())))

	fmt.Println("\nOLTP's gains come from communication misses and L2 hit latency. The")
	fmt.Println("scans stream read-only account blocks (their 3-hop misses are on the")
	fmt.Println("latches and buffer headers every scan takes), so integration has less")
	fmt.Println("to buy.")
}
