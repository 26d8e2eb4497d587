package core

import (
	"strings"
	"testing"

	"oltpsim/internal/kernel"
	"oltpsim/internal/memref"
)

// stuckWorkload naps forever without ever committing a transaction: the
// shape of a scheduler deadlock (every process blocked, nobody to wake
// them) as seen from the stepping loop.
type stuckWorkload struct{}

func (stuckWorkload) Next(cpu int, now uint64) ([]memref.Ref, kernel.Status, uint64) {
	return nil, kernel.StatusIdle, now + 2048
}

func (stuckWorkload) HomeOf(uint64) int { return 0 }
func (stuckWorkload) Committed() uint64 { return 0 }

// TestRunUntilPanicsOnStuckScheduler proves the deadlock guard actually
// fires: a workload that idles forever must trip the derived step bound
// instead of spinning until the heat death of the test runner.
func TestRunUntilPanicsOnStuckScheduler(t *testing.T) {
	sys := MustNewSystem(smallCfg(1), stuckWorkload{})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("RunUntil returned instead of panicking on a stuck scheduler")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "scheduler deadlock") {
			t.Fatalf("panic = %v, want a scheduler-deadlock message", r)
		}
	}()
	sys.RunUntil(1)
}

// TestStepBoundScalesWithWork pins the shape of the derived bound:
// proportional to outstanding transactions and core count, saturating
// rather than overflowing for absurd targets, and never zero (so the loop
// always gets at least a budget of steps before the guard trips).
func TestStepBoundScalesWithWork(t *testing.T) {
	sys1 := MustNewSystem(smallCfg(1), stuckWorkload{})
	sys4 := MustNewSystem(smallCfg(4), stuckWorkload{})

	b1 := sys1.stepBound(1)
	if want := uint64(2) * refBudgetPerTxn; b1 != want {
		t.Fatalf("stepBound(1 txn, 1 cpu) = %d, want %d", b1, want)
	}
	b4 := sys4.stepBound(10)
	if want := uint64(11) * refBudgetPerTxn * 4; b4 != want {
		t.Fatalf("stepBound(10 txns, 4 cpus) = %d, want %d", b4, want)
	}
	// A target at or below the committed count still leaves a one-transaction
	// budget for the loop's own bookkeeping.
	if b0 := sys1.stepBound(0); b0 != refBudgetPerTxn {
		t.Fatalf("stepBound(0) = %d, want %d", b0, refBudgetPerTxn)
	}
	if sat := sys4.stepBound(^uint64(0) / 2); sat != ^uint64(0) {
		t.Fatalf("stepBound(huge) = %d, want saturation at max uint64", sat)
	}
}
