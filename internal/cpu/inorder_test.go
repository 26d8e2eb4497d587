package cpu

import (
	"testing"

	"oltpsim/internal/memref"
)

func TestInOrderBusyAccounting(t *testing.T) {
	m := NewInOrder()
	m.Account(memref.New(0, memref.IFetch, false, false, 16), 0, CatNone)
	if m.Now() != 16 || m.Breakdown().Busy != 16 {
		t.Fatalf("now %d busy %d", m.Now(), m.Breakdown().Busy)
	}
	if m.Breakdown().Instructions != 16 {
		t.Fatalf("instructions %d", m.Breakdown().Instructions)
	}
}

func TestInOrderStallAccounting(t *testing.T) {
	m := NewInOrder()
	m.Account(memref.New(0, memref.Load, false, false, 0), 25, CatL2Hit)
	m.Account(memref.New(0, memref.Store, false, false, 0), 100, CatLocal)
	m.Account(memref.New(0, memref.Load, false, false, 0), 175, CatRemote)
	m.Account(memref.New(0, memref.Load, false, false, 0), 275, CatRemoteDirty)
	b := m.Breakdown()
	if b.L2Hit != 25 || b.Local != 100 || b.Remote != 175 || b.RemoteDirty != 275 {
		t.Fatalf("breakdown %+v", b)
	}
	if m.Now() != 25+100+175+275 {
		t.Fatalf("now %d", m.Now())
	}
	if b.NonIdle() != 575 {
		t.Fatalf("non-idle %d", b.NonIdle())
	}
}

func TestInOrderL1HitIsFree(t *testing.T) {
	m := NewInOrder()
	m.Account(memref.New(0, memref.Load, false, false, 0), 0, CatNone)
	if m.Now() != 0 {
		t.Fatalf("L1 hit advanced clock to %d", m.Now())
	}
}

func TestInOrderKernelAttribution(t *testing.T) {
	m := NewInOrder()
	m.Account(memref.New(0, memref.IFetch, true, false, 10), 0, CatNone)
	m.Account(memref.New(0, memref.Load, true, false, 0), 25, CatL2Hit)
	m.Account(memref.New(0, memref.Load, false, false, 0), 25, CatL2Hit)
	if k := m.Breakdown().Kernel; k != 35 {
		t.Fatalf("kernel cycles %d, want 35", k)
	}
}

func TestInOrderIdle(t *testing.T) {
	m := NewInOrder()
	m.Account(memref.New(0, memref.IFetch, false, false, 8), 0, CatNone)
	m.AdvanceTo(100)
	if m.Now() != 100 || m.Breakdown().Idle != 92 {
		t.Fatalf("now %d idle %d", m.Now(), m.Breakdown().Idle)
	}
	m.AdvanceTo(50) // no-op in the past
	if m.Now() != 100 {
		t.Fatal("AdvanceTo went backwards")
	}
}

func TestInOrderResetStats(t *testing.T) {
	m := NewInOrder()
	m.Account(memref.New(0, memref.IFetch, false, false, 8), 25, CatL2Hit)
	m.ResetStats()
	if m.Breakdown().NonIdle() != 0 {
		t.Fatal("breakdown not reset")
	}
	if m.Now() == 0 {
		t.Fatal("clock must survive stats reset")
	}
}

func TestBreakdownAdd(t *testing.T) {
	a := Breakdown{Busy: 1, L2Hit: 2, Local: 3, Remote: 4, RemoteDirty: 5, Idle: 6, Kernel: 7, Instructions: 8}
	b := a
	b.Add(&a)
	if b.Busy != 2 || b.RemoteDirty != 10 || b.Instructions != 16 {
		t.Fatalf("add wrong: %+v", b)
	}
	if a.RemoteTotal() != 9 {
		t.Fatalf("remote total %d", a.RemoteTotal())
	}
}
