// ooo_vs_inorder reproduces the paper's Section 7 comparison: a 4-wide
// out-of-order core gains ~1.4x on OLTP in absolute terms, but the
// *relative* benefit of chip-level integration is the same as for a
// single-issue in-order core — memory stalls dominated by dependent chains
// and SC stores do not yield to instruction-level parallelism.
//
//	go run ./examples/ooo_vs_inorder
package main

import (
	"fmt"

	"oltpsim"
)

func main() {
	opt := oltpsim.QuickOptions()
	opt.MeasureTxns = 800

	ooo := func(cfg oltpsim.Config, name string) oltpsim.Config {
		cfg.OutOfOrder = true
		cfg.Name = name
		return cfg
	}

	for _, procs := range []int{1, 8} {
		fmt.Printf("=== %d processor(s) ===\n", procs)
		baseIO := opt.Run(oltpsim.BaseConfig(procs, 8*oltpsim.MB, 1))
		baseOOO := opt.Run(ooo(oltpsim.BaseConfig(procs, 8*oltpsim.MB, 1), "Base OOO"))
		intIO := opt.Run(oltpsim.IntegratedL2Config(procs, 2*oltpsim.MB, 8, oltpsim.OnChipSRAM))
		intOOO := opt.Run(ooo(oltpsim.IntegratedL2Config(procs, 2*oltpsim.MB, 8, oltpsim.OnChipSRAM), "L2 OOO"))

		fmt.Printf("  in-order:     Base %7.0f -> L2 %7.0f cycles/txn (integration gain %.2fx)\n",
			baseIO.CyclesPerTxn(), intIO.CyclesPerTxn(), intIO.Speedup(&baseIO))
		fmt.Printf("  out-of-order: Base %7.0f -> L2 %7.0f cycles/txn (integration gain %.2fx)\n",
			baseOOO.CyclesPerTxn(), intOOO.CyclesPerTxn(), intOOO.Speedup(&baseOOO))
		fmt.Printf("  OOO absolute gain over in-order at Base: %.2fx (paper: ~1.4x uni, ~1.3x MP)\n\n",
			baseOOO.Speedup(&baseIO))
	}
	fmt.Println("The two integration-gain columns should match: out-of-order execution")
	fmt.Println("does not change what chip-level integration buys on OLTP.")
}
