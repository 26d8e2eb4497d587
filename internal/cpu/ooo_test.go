package cpu

import (
	"testing"

	"oltpsim/internal/memref"
)

func newTestOOO() *OOO {
	return NewOOO(OOOConfig{EffectiveWidth: 2, ChainFraction: 1e-12})
}

func fetch(m *OOO, instrs int) {
	for instrs > 0 {
		n := instrs
		if n > 16 {
			n = 16
		}
		m.Account(memref.New(0, memref.IFetch, false, false, n), 0, CatNone)
		instrs -= n
	}
}

func TestOOOBusyCompression(t *testing.T) {
	m := newTestOOO()
	fetch(m, 160)
	if m.Now() != 80 {
		t.Fatalf("160 instrs at width 2 took %d cycles, want 80", m.Now())
	}
}

func TestOOOIndependentMissesOverlap(t *testing.T) {
	// Two independent 100-cycle loads separated by 16 instructions: the
	// second issues while the first is outstanding, so total time is far
	// less than 200 cycles of stall.
	m := newTestOOO()
	fetch(m, 16)
	m.Account(memref.New(0, memref.Load, false, false, 0), 100, CatLocal)
	fetch(m, 16)
	m.Account(memref.New(0, memref.Load, false, false, 0), 100, CatLocal)
	total := m.Now()
	if total > 130 {
		t.Fatalf("two overlapping misses took %d cycles", total)
	}
	serial := NewInOrder()
	serial.Account(memref.New(0, memref.IFetch, false, false, 16), 0, CatNone)
	serial.Account(memref.New(0, memref.Load, false, false, 0), 100, CatLocal)
	serial.Account(memref.New(0, memref.IFetch, false, false, 16), 0, CatNone)
	serial.Account(memref.New(0, memref.Load, false, false, 0), 100, CatLocal)
	if total >= serial.Now() {
		t.Fatalf("OOO (%d) not faster than in-order (%d)", total, serial.Now())
	}
}

func TestOOOWindowLimitsOverlap(t *testing.T) {
	// Misses more than a window apart cannot overlap: the second's ROB slot
	// only exists after the first retires.
	m := newTestOOO()
	m.Account(memref.New(0, memref.Load, false, false, 0), 100, CatLocal)
	fetch(m, 128) // two windows of instructions
	m.Account(memref.New(0, memref.Load, false, false, 0), 100, CatLocal)
	// First miss: ~100; 128 instrs: 64; second miss gated by window: ~100
	// mostly exposed beyond the fetch time.
	if m.Now() < 190 {
		t.Fatalf("far-apart misses finished in %d cycles; window not limiting", m.Now())
	}
}

func TestOOODependentChainSerializes(t *testing.T) {
	m := newTestOOO()
	fetch(m, 16)
	m.Account(memref.New(0, memref.Load, false, false, 0), 100, CatLocal)
	m.Account(memref.New(0, memref.Load, false, true, 0), 100, CatLocal)
	if m.Now() < 200 {
		t.Fatalf("dependent chain finished in %d cycles, want >= 200", m.Now())
	}
}

func TestOOOStoresFullyExposed(t *testing.T) {
	// Sequential consistency: a store's latency starts at the retire
	// frontier, so back-to-back store misses serialize.
	m := newTestOOO()
	m.Account(memref.New(0, memref.Store, false, false, 0), 100, CatLocal)
	m.Account(memref.New(0, memref.Store, false, false, 0), 100, CatLocal)
	if m.Now() < 200 {
		t.Fatalf("SC stores overlapped: %d cycles", m.Now())
	}
	if m.Breakdown().Local < 199 {
		t.Fatalf("store stall attribution %d", m.Breakdown().Local)
	}
}

func TestOOOIFetchMissPartiallyExposed(t *testing.T) {
	m := newTestOOO()
	m.Account(memref.New(0, memref.IFetch, false, false, 16), 100, CatLocal)
	want := uint64(8 + 72) // 16/2 busy + 100*0.72 exposure
	if m.Now() != want {
		t.Fatalf("ifetch miss: now %d, want %d", m.Now(), want)
	}
	if m.Breakdown().Local != 72 {
		t.Fatalf("ifetch stall attribution %d", m.Breakdown().Local)
	}
}

func TestOOOChainFractionForcesSerialization(t *testing.T) {
	chained := NewOOO(OOOConfig{EffectiveWidth: 2, ChainFraction: 0.999999})
	free := newTestOOO()
	for i := 0; i < 50; i++ {
		fetch(chained, 16)
		chained.Account(memref.New(0, memref.Load, false, false, 0), 100, CatLocal)
		fetch(free, 16)
		free.Account(memref.New(0, memref.Load, false, false, 0), 100, CatLocal)
	}
	if chained.Now() <= free.Now() {
		t.Fatalf("chained (%d) not slower than unchained (%d)", chained.Now(), free.Now())
	}
}

func TestOOODefaults(t *testing.T) {
	m := NewOOO(OOOConfig{})
	if m.cfg.EffectiveWidth <= 0 || m.cfg.ChainFraction <= 0 {
		t.Fatal("calibrated defaults missing")
	}
}

func TestOOOIdleAndReset(t *testing.T) {
	m := newTestOOO()
	fetch(m, 32)
	m.AdvanceTo(1000)
	if m.Breakdown().Idle != 1000-16 {
		t.Fatalf("idle %d", m.Breakdown().Idle)
	}
	m.ResetStats()
	if m.Breakdown().NonIdle() != 0 || m.Now() != 1000 {
		t.Fatal("reset semantics wrong")
	}
}

func TestOOOGateRingGrowth(t *testing.T) {
	// Many data refs between fetches stress the checkpoint ring; it must
	// neither panic nor lose accounting.
	m := newTestOOO()
	for i := 0; i < 10_000; i++ {
		m.Account(memref.New(0, memref.Load, false, false, 0), 0, CatNone)
		if i%100 == 0 {
			fetch(m, 16)
		}
	}
	if m.Breakdown().Instructions != 16*100 {
		t.Fatalf("instructions %d", m.Breakdown().Instructions)
	}
}

func TestOOOCompareWithInOrderOnSameStream(t *testing.T) {
	// On any stream, OOO must never be slower than in-order at equal width
	// would suggest: its busy time alone is half, and stalls are bounded by
	// full exposure.
	ooo := NewOOO(OOOConfig{EffectiveWidth: 2, ChainFraction: 0.9})
	io := NewInOrder()
	refs := []struct {
		r   memref.Ref
		lat uint32
		cat StallCat
	}{
		{memref.New(0, memref.IFetch, false, false, 16), 0, CatNone},
		{memref.New(0, memref.Load, false, false, 0), 25, CatL2Hit},
		{memref.New(0, memref.IFetch, false, false, 16), 25, CatL2Hit},
		{memref.New(0, memref.Store, false, false, 0), 275, CatRemoteDirty},
		{memref.New(0, memref.Load, false, true, 0), 175, CatRemote},
	}
	for i := 0; i < 200; i++ {
		for _, x := range refs {
			ooo.Account(x.r, x.lat, x.cat)
			io.Account(x.r, x.lat, x.cat)
		}
	}
	if ooo.Now() >= io.Now() {
		t.Fatalf("OOO (%d) not faster than in-order (%d)", ooo.Now(), io.Now())
	}
	// And the speedup must stay within the plausible band the paper
	// reports (roughly 1.2x - 1.8x for OLTP-like mixes).
	ratio := float64(io.Now()) / float64(ooo.Now())
	if ratio < 1.05 || ratio > 2.5 {
		t.Fatalf("OOO speedup %.2f outside plausible band", ratio)
	}
}
