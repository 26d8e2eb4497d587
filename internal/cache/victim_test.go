package cache

import "testing"

func TestVictimBufferPutTake(t *testing.T) {
	v := NewVictimBuffer(4)
	if d, ds := v.Put(100, Modified); ds != Invalid || d != 0 {
		t.Fatal("first Put displaced something")
	}
	st, ok := v.Take(100)
	if !ok || st != Modified {
		t.Fatalf("Take = (%v, %v)", st, ok)
	}
	if _, ok := v.Take(100); ok {
		t.Fatal("second Take found the removed line")
	}
}

func TestVictimBufferDisplacement(t *testing.T) {
	v := NewVictimBuffer(2)
	v.Put(1*64, Shared)
	v.Put(2*64, Modified)
	d, ds := v.Put(3*64, Shared)
	if d != 1*64 || ds != Shared {
		t.Fatalf("displaced (%#x, %v), want oldest entry", d, ds)
	}
	d, ds = v.Put(4*64, Shared)
	if d != 2*64 || ds != Modified {
		t.Fatalf("displaced (%#x, %v), want FIFO order", d, ds)
	}
}

func TestZeroSizedVictimBuffer(t *testing.T) {
	v := NewVictimBuffer(0)
	d, ds := v.Put(64, Modified)
	if d != 64 || ds != Modified {
		t.Fatal("zero-sized buffer must pass the line through as displaced")
	}
	if _, ok := v.Take(64); ok {
		t.Fatal("zero-sized buffer hit")
	}
}

func TestVictimBufferInvalidate(t *testing.T) {
	v := NewVictimBuffer(2)
	v.Put(64, Modified)
	if st := v.Invalidate(64); st != Modified {
		t.Fatalf("Invalidate returned %v", st)
	}
	if st := v.Invalidate(64); st != Invalid {
		t.Fatal("double Invalidate returned non-Invalid")
	}
}

func TestVictimBufferDowngrade(t *testing.T) {
	v := NewVictimBuffer(2)
	v.Put(64, Modified)
	if st := v.Downgrade(64); st != Modified {
		t.Fatalf("Downgrade returned %v", st)
	}
	if st, ok := v.Take(64); !ok || st != Shared {
		t.Fatalf("after downgrade Take = (%v, %v), want Shared", st, ok)
	}
	if st := v.Downgrade(999); st != Invalid {
		t.Fatal("Downgrade of absent line returned non-Invalid")
	}
}

func TestVictimBufferDropsInvalidPut(t *testing.T) {
	v := NewVictimBuffer(2)
	if _, ds := v.Put(64, Invalid); ds != Invalid {
		t.Fatal("Put(Invalid) displaced something")
	}
}
