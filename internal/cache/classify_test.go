package cache

import (
	"testing"

	"oltpsim/internal/sim"
)

// driveClassified runs an access sequence through a real cache and its
// classifier together.
type classified struct {
	c  *Cache
	cl *Classifier
}

func newClassified(size int64, assoc int) *classified {
	c := New(Config{Name: "T", SizeBytes: size, Assoc: assoc})
	return &classified{c: c, cl: NewClassifier(int(size / 64))}
}

func (x *classified) access(line uint64) (MissClass, bool) {
	hit := x.c.Access(line) != Invalid
	if !hit {
		x.c.Insert(line, Shared)
	}
	return x.cl.Observe(line, hit)
}

func TestColdMiss(t *testing.T) {
	x := newClassified(64*64, 1)
	class, miss := x.access(0)
	if !miss || class != Cold {
		t.Fatalf("first access = (%v, %v), want cold miss", class, miss)
	}
	if _, miss := x.access(0); miss {
		t.Fatal("second access missed")
	}
}

func TestConflictMiss(t *testing.T) {
	// Direct-mapped, 4 sets: lines 0 and 4*64 collide; a fully-associative
	// cache of the same capacity would keep both.
	x := newClassified(4*64, 1)
	x.access(0)
	x.access(4 * 64)
	class, miss := x.access(0)
	if !miss || class != Conflict {
		t.Fatalf("expected conflict miss, got (%v, %v)", class, miss)
	}
}

func TestCapacityMiss(t *testing.T) {
	// Fully-associative-equivalent pressure: touch capacity+1 distinct
	// lines round-robin so even the FA shadow must evict.
	x := newClassified(4*64, 4) // capacity 4 lines, fully associative
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 5; i++ {
			class, miss := x.access(i * 64)
			if round > 0 && miss && class != Capacity {
				t.Fatalf("round %d line %d: class %v, want capacity", round, i, class)
			}
		}
	}
	if x.cl.Counts[Capacity] == 0 {
		t.Fatal("no capacity misses recorded")
	}
	if x.cl.Counts[Conflict] != 0 {
		t.Fatalf("fully-associative cache recorded %d conflict misses", x.cl.Counts[Conflict])
	}
}

func TestClassifierTotals(t *testing.T) {
	x := newClassified(4*64, 1)
	r := sim.NewRNG(1)
	misses := uint64(0)
	for i := 0; i < 5000; i++ {
		if _, miss := x.access(uint64(r.Intn(64)) * 64); miss {
			misses++
		}
	}
	if x.cl.Total() != misses {
		t.Fatalf("classifier total %d != observed misses %d", x.cl.Total(), misses)
	}
}

// TestPaperClaim reproduces the Section 3 argument in miniature: misses a
// direct-mapped cache suffers beyond a same-capacity fully-associative
// cache are conflicts, and associativity removes them.
func TestPaperClaimConflictDominance(t *testing.T) {
	r := sim.NewRNG(2)
	// Hot working set of 48 lines scattered over a large address range,
	// cache capacity 64 lines.
	hot := make([]uint64, 32)
	for i := range hot {
		hot[i] = uint64(r.Intn(1<<20)) * 64
	}
	run := func(assoc int) (misses uint64, conflicts uint64) {
		x := newClassified(64*64, assoc)
		for i := 0; i < 20_000; i++ {
			if _, miss := x.access(hot[r.Intn(len(hot))]); miss {
				misses++
			}
		}
		return misses, x.cl.Counts[Conflict]
	}
	dmMisses, dmConf := run(1)
	aMisses, aConf := run(8)
	if dmMisses <= aMisses {
		t.Fatalf("direct-mapped misses %d <= 8-way misses %d", dmMisses, aMisses)
	}
	if dmConf == 0 {
		t.Fatal("direct-mapped run recorded no conflict misses")
	}
	if aConf*3 > dmConf {
		t.Fatalf("8-way conflicts %d not far below direct-mapped %d", aConf, dmConf)
	}
}

func TestFALRUEviction(t *testing.T) {
	f := newFALRU(3)
	f.access(1)
	f.access(2)
	f.access(3)
	f.access(1) // 1 now MRU; order: 1,3,2
	f.access(4) // evicts 2; order: 4,1,3
	if f.access(2) {
		t.Fatal("line 2 should have been evicted")
	}
	// That miss inserted 2 and evicted 3 (LRU); order: 2,4,1.
	if !f.access(4) || !f.access(1) || f.access(3) {
		t.Fatal("membership after evictions is wrong")
	}
	if f.len() > 3 {
		t.Fatalf("faLRU grew to %d", f.len())
	}
}

func TestMissClassString(t *testing.T) {
	if Cold.String() != "cold" || Capacity.String() != "capacity" || Conflict.String() != "conflict" {
		t.Fatal("class strings wrong")
	}
	if MissClass(7).String() != "?" {
		t.Fatal("unknown class string wrong")
	}
}

func TestClassifierPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClassifier(0) did not panic")
		}
	}()
	NewClassifier(0)
}
