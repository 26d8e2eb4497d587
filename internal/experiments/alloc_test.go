package experiments

import (
	"testing"

	"oltpsim/internal/core"
)

// TestSteadyStateAllocsPerTxn: once a machine is warm, committing more
// transactions allocates next to nothing. The bound covers 200
// transactions, so one allocation per transaction (a callback armed at
// every commit, say) fails it tenfold, while the amortized growth of
// long-lived buffers fits under it.
func TestSteadyStateAllocsPerTxn(t *testing.T) {
	const txns, bound = 200, 20
	o := QuickOptions()
	for _, cfg := range []core.Config{
		core.BaseConfig(8, 8*core.MB, 1),
		core.FullConfig(8, 2*core.MB, 8),
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			s := o.build(cfg)
			s.RunUntil(o.WarmupTxns)
			allocs := testing.AllocsPerRun(1, func() { s.RunUntil(s.Committed() + txns) })
			t.Logf("%.0f allocations over %d warm transactions", allocs, txns)
			if allocs > bound {
				t.Errorf("%.0f allocations over %d warm transactions, want at most %d", allocs, txns, bound)
			}
		})
	}
}
