package rac

import (
	"testing"

	"oltpsim/internal/cache"
)

func TestTakeIsExclusive(t *testing.T) {
	r := New(64 * 64)
	r.Insert(128, cache.Shared)
	st, ok := r.Take(128)
	if !ok || st != cache.Shared {
		t.Fatalf("Take = (%v, %v)", st, ok)
	}
	if _, ok := r.Take(128); ok {
		t.Fatal("line still in RAC after Take")
	}
	if r.Stats.Hits != 1 || r.Stats.Probes != 2 {
		t.Fatalf("stats %+v", r.Stats)
	}
}

func TestInsertEviction(t *testing.T) {
	r := New(8 * 64) // one set, 8 ways
	for i := uint64(0); i < 8; i++ {
		if _, vst := r.Insert(i*64, cache.Modified); vst != cache.Invalid {
			t.Fatal("premature eviction")
		}
	}
	victim, vst := r.Insert(8*64, cache.Modified)
	if vst != cache.Modified || victim != 0 {
		t.Fatalf("victim (%#x, %v), want LRU line 0", victim, vst)
	}
}

func TestInvalidateAndDowngrade(t *testing.T) {
	r := New(64 * 64)
	r.Insert(64, cache.Modified)
	if !r.Downgrade(64) {
		t.Fatal("Downgrade failed")
	}
	if r.Probe(64) != cache.Shared {
		t.Fatal("state after downgrade not Shared")
	}
	if st := r.Invalidate(64); st != cache.Shared {
		t.Fatalf("Invalidate returned %v", st)
	}
	if r.Occupancy() != 0 {
		t.Fatal("line remains after invalidate")
	}
	if r.Downgrade(64) {
		t.Fatal("Downgrade of absent line succeeded")
	}
}

func TestResetStats(t *testing.T) {
	r := New(64 * 64)
	r.Insert(0, cache.Shared)
	r.Take(0)
	r.ResetStats()
	if r.Stats != (Stats{}) {
		t.Fatal("stats not reset")
	}
}
