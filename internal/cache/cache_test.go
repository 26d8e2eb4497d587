package cache

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"oltpsim/internal/memref"
	"oltpsim/internal/sim"
	"oltpsim/internal/snapshot"
)

func mk(t *testing.T, size int64, assoc int) *Cache {
	if t != nil {
		t.Helper()
	}
	return New(Config{Name: "T", SizeBytes: size, Assoc: assoc})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "b", SizeBytes: 1000, Assoc: 1},  // size not multiple
		{Name: "c", SizeBytes: 1024, Assoc: 0},  // zero assoc
		{Name: "d", SizeBytes: -64, Assoc: 1},   // negative
		{Name: "e", SizeBytes: 4096, Assoc: -2}, // negative assoc
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v validated but should not", c)
		}
	}
	good := Config{Name: "g", SizeBytes: 2 << 20, Assoc: 8}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	if good.Sets() != 4096 {
		t.Errorf("Sets() = %d, want 4096", good.Sets())
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := mk(t, 4096, 2) // 32 sets
	if st := c.Access(0); st != Invalid {
		t.Fatal("empty cache hit")
	}
	c.Insert(0, Shared)
	if st := c.Access(0); st != Shared {
		t.Fatalf("expected Shared hit, got %v", st)
	}
	if c.Accesses != 2 || c.Hits != 1 || c.Misses() != 1 {
		t.Fatalf("stats wrong: %d accesses %d hits", c.Accesses, c.Hits)
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := mk(t, 2*64*4, 4) // 2 sets, 4 ways; lines 0,128,256,... map to set 0
	lineInSet0 := func(i int) uint64 { return uint64(i) * 128 }
	for i := 0; i < 4; i++ {
		c.Insert(lineInSet0(i), Shared)
	}
	// Touch line 0 so line 1 is LRU.
	c.Access(lineInSet0(0))
	victim, vst := c.Insert(lineInSet0(4), Shared)
	if vst == Invalid || victim != lineInSet0(1) {
		t.Fatalf("expected victim %#x, got %#x (%v)", lineInSet0(1), victim, vst)
	}
}

func TestInsertExisting(t *testing.T) {
	c := mk(t, 4096, 2)
	c.Insert(64, Shared)
	victim, vst := c.Insert(64, Modified)
	if vst != Invalid || victim != 0 {
		t.Fatal("re-insert evicted something")
	}
	if c.Probe(64) != Modified {
		t.Fatal("re-insert did not update state")
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy %d after re-insert", c.Occupancy())
	}
}

func TestInvalidateAndSetState(t *testing.T) {
	c := mk(t, 4096, 2)
	c.Insert(128, Exclusive)
	if !c.SetState(128, Modified) {
		t.Fatal("SetState failed on resident line")
	}
	if st := c.Invalidate(128); st != Modified {
		t.Fatalf("Invalidate returned %v", st)
	}
	if c.Probe(128) != Invalid {
		t.Fatal("line still present after Invalidate")
	}
	if c.SetState(128, Shared) {
		t.Fatal("SetState succeeded on absent line")
	}
	if st := c.Invalidate(128); st != Invalid {
		t.Fatal("double Invalidate returned non-Invalid")
	}
}

func TestSetStatePanicsOnInvalid(t *testing.T) {
	c := mk(t, 4096, 2)
	c.Insert(0, Shared)
	defer func() {
		if recover() == nil {
			t.Fatal("SetState(Invalid) did not panic")
		}
	}()
	c.SetState(0, Invalid)
}

func TestInsertPanicsOnInvalid(t *testing.T) {
	c := mk(t, 4096, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(Invalid) did not panic")
		}
	}()
	c.Insert(0, Invalid)
}

func TestNonPowerOfTwoSets(t *testing.T) {
	// 1.25 MB 4-way: 5120 sets, not a power of two (paper Figure 12 uses
	// this size for the RAC-tags-vs-L2-capacity comparison).
	c := mk(t, 5*256*1024, 4)
	if c.Config().Sets() != 5120 {
		t.Fatalf("sets = %d", c.Config().Sets())
	}
	// Insert and retrieve lines far apart.
	for i := 0; i < 10_000; i++ {
		line := uint64(i) * 64 * 7919
		c.Insert(line, Shared)
		if c.Probe(line) != Shared {
			t.Fatalf("line %#x lost immediately after insert", line)
		}
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := mk(t, 64*64, 1) // 64 sets, direct mapped
	a := uint64(0)
	b := uint64(64 * 64) // same set as a
	c.Insert(a, Shared)
	victim, vst := c.Insert(b, Shared)
	if vst == Invalid || victim != a {
		t.Fatal("direct-mapped insert did not evict the conflicting line")
	}
	// 4-way tolerates it.
	c4 := mk(t, 64*64, 4)
	c4.Insert(a, Shared)
	if _, vst := c4.Insert(b, Shared); vst != Invalid {
		t.Fatal("4-way evicted despite free ways")
	}
}

func TestResetStatsPreservesContents(t *testing.T) {
	c := mk(t, 4096, 2)
	c.Insert(0, Modified)
	c.Access(0)
	c.ResetStats()
	if c.Accesses != 0 || c.Hits != 0 {
		t.Fatal("stats not reset")
	}
	if c.Probe(0) != Modified {
		t.Fatal("contents lost on stats reset")
	}
}

func TestForEachResident(t *testing.T) {
	c := mk(t, 4096, 2)
	want := map[uint64]State{64: Shared, 128: Modified, 4096 + 64: Exclusive}
	for l, s := range want {
		c.Insert(l, s)
	}
	got := map[uint64]State{}
	c.ForEachResident(func(line uint64, st State) { got[line] = st })
	if len(got) != len(want) {
		t.Fatalf("resident count %d, want %d", len(got), len(want))
	}
	for l, s := range want {
		if got[l] != s {
			t.Errorf("line %#x state %v, want %v", l, got[l], s)
		}
	}
}

// TestOccupancyNeverExceedsCapacity is a property test: any access sequence
// keeps occupancy within capacity and every resident line is findable.
func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		c := mk(nil, 64*64*2, 2) // 128 lines capacity
		for i := 0; i < 2000; i++ {
			line := uint64(r.Intn(500)) * 64
			if c.Access(line) == Invalid {
				c.Insert(line, State(1+r.Intn(3)))
			}
		}
		if c.Occupancy() > 128 {
			return false
		}
		ok := true
		c.ForEachResident(func(line uint64, st State) {
			if c.Probe(line) != st {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestLRUAgainstReference checks the set-associative LRU against a simple
// reference model for random access sequences.
func TestLRUAgainstReference(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		const sets, ways = 4, 2
		c := mk(nil, sets*ways*64, ways)
		// Reference model: per set, slice ordered most..least recent.
		ref := make([][]uint64, sets)
		for i := 0; i < 1000; i++ {
			line := uint64(r.Intn(32)) * 64
			set := int(line / 64 % sets)
			hitRef := false
			for j, l := range ref[set] {
				if l == line {
					ref[set] = append([]uint64{line}, append(ref[set][:j], ref[set][j+1:]...)...)
					hitRef = true
					break
				}
			}
			hit := c.Access(line) != Invalid
			if hit != hitRef {
				return false
			}
			if !hit {
				c.Insert(line, Shared)
				ref[set] = append([]uint64{line}, ref[set]...)
				if len(ref[set]) > ways {
					ref[set] = ref[set][:ways]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" || Modified.String() != "M" {
		t.Fatal("state strings wrong")
	}
	if State(9).String() != "?" {
		t.Fatal("unknown state string wrong")
	}
}

func TestInsertPanicsOnUnalignedLine(t *testing.T) {
	c := mk(t, 4096, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert of an unaligned line did not panic")
		}
	}()
	c.Insert(64+8, Shared)
}

// TestMatchesStampLRU drives the recency-ordered cache and the stamp-LRU
// reference with the same random operations on 1-, 2-, 4- and 8-way
// geometries, Figure 12's 5,120-set 1.25 MB L2 among them. Every return
// value must agree at every step, and the resident (line, state) pairs and
// counters must agree at the end.
func TestMatchesStampLRU(t *testing.T) {
	const ops = 200_000
	for _, g := range []struct {
		size  int64
		assoc int
	}{
		{64 * 64, 1},
		{64 << 10, 2},
		{5 << 18, 4},
		{2 << 20, 8},
		{16 * 64 * 8, 8},
	} {
		t.Run(fmt.Sprintf("%dB_%dway", g.size, g.assoc), func(t *testing.T) {
			cfg := Config{Name: "T", SizeBytes: g.size, Assoc: g.assoc}
			c, ref := New(cfg), newStampCache(cfg)
			nsets := uint64(cfg.Sets())
			r := sim.NewRNG(uint64(g.size) + uint64(g.assoc))
			// Lines crowd 24 sets, three ways' worth each, so sets fill,
			// evict and hit at every rank; a set index past nsets wraps.
			line := func() uint64 {
				set := uint64(r.Intn(24)) * (nsets/24 + 1)
				return (set + uint64(r.Intn(3*g.assoc))*nsets) * 64
			}
			for i := 0; i < ops; i++ {
				l := line()
				st := State(1 + r.Intn(3))
				var got, want any
				switch op := r.Intn(6); op {
				case 0:
					got, want = c.Access(l), ref.Access(l)
				case 1:
					v1, s1 := c.Insert(l, st)
					v2, s2 := ref.Insert(l, st)
					got, want = [2]any{v1, s1}, [2]any{v2, s2}
				case 2:
					got, want = c.SetState(l, st), ref.SetState(l, st)
				case 3:
					got, want = c.Invalidate(l), ref.Invalidate(l)
				case 4:
					got, want = c.Probe(l), ref.Probe(l)
				default: // a reference: access, then fill on a miss
					got, want = c.Access(l), ref.Access(l)
					if got == Invalid {
						v1, s1 := c.Insert(l, st)
						v2, s2 := ref.Insert(l, st)
						got, want = [2]any{v1, s1}, [2]any{v2, s2}
					}
				}
				if got != want {
					t.Fatalf("op %d on line %#x: got %v, reference %v", i, l, got, want)
				}
			}
			resident := func(each func(func(uint64, State))) map[uint64]State {
				m := map[uint64]State{}
				each(func(l uint64, st State) { m[l] = st })
				return m
			}
			if got, want := resident(c.ForEachResident), resident(ref.ForEachResident); !reflect.DeepEqual(got, want) {
				t.Errorf("resident lines differ: %d vs reference %d", len(got), len(want))
			}
			if c.Accesses != ref.Accesses || c.Hits != ref.Hits || c.Occupancy() != ref.Occupancy() {
				t.Errorf("counters %d/%d/%d, reference %d/%d/%d", c.Accesses, c.Hits, c.Occupancy(),
					ref.Accesses, ref.Hits, ref.Occupancy())
			}
		})
	}
}

// loadWords restores a cache of 4 sets of 2 ways from the given words and
// counters.
func loadWords(ways []uint64, accesses, hits uint64) (*Cache, error) {
	w := snapshot.NewWriter()
	e := w.Section("cache")
	e.U64s(ways)
	e.U64(accesses)
	e.U64(hits)
	var buf bytes.Buffer
	if err := w.Emit(&buf); err != nil {
		return nil, err
	}
	r, err := snapshot.NewReader(&buf)
	if err != nil {
		return nil, err
	}
	d, err := r.Section("cache")
	if err != nil {
		return nil, err
	}
	c := mk(nil, 4*2*64, 2)
	return c, c.LoadState(d)
}

// TestLoadStateRefusesBadWords: each invariant the lookup and the LRU order
// rely on has a checkpoint that breaks it and is refused. Line 0 and line
// 0x100 (= 4 sets * 64 B) both belong to set 0; ways 0-1 are set 0.
func TestLoadStateRefusesBadWords(t *testing.T) {
	m := func(line uint64) uint64 { return line | uint64(Modified)<<1 | validBit }
	for _, tc := range []struct {
		name, want string
		ways       []uint64
		hits       uint64
	}{
		{"wrong way count", "ways, want 8", make([]uint64, 6), 0},
		{"stray low bits", "stray low bits", []uint64{m(0) | 0x10, 0, 0, 0, 0, 0, 0, 0}, 0},
		{"valid bit without a state", "not a valid line", []uint64{validBit, 0, 0, 0, 0, 0, 0, 0}, 0},
		{"state without the valid bit", "not a valid line", []uint64{uint64(Shared) << 1, 0, 0, 0, 0, 0, 0, 0}, 0},
		{"line outside its set", "outside its set", []uint64{m(64), 0, 0, 0, 0, 0, 0, 0}, 0},
		{"line twice in one set", "twice", []uint64{m(0), m(0), 0, 0, 0, 0, 0, 0}, 0},
		{"occupied way after an empty one", "after an empty way", []uint64{0, m(0x100), 0, 0, 0, 0, 0, 0}, 0},
		{"hits exceed accesses", "hits exceed", make([]uint64, 8), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := loadWords(tc.ways, 0, tc.hits)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadState error %v, want one containing %q", err, tc.want)
			}
		})
	}
	// The same words with line 0 once and line 0x100 behind it load, and
	// invalidating line 0 then leaves no copy behind.
	c, err := loadWords([]uint64{m(0), m(0x100), 0, 0, 0, 0, 0, 0}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Invalidate(0); st != Modified || c.Probe(0) != Invalid || c.Probe(0x100) != Modified {
		t.Fatalf("Invalidate(0) = %v, then Probe(0) = %v, Probe(0x100) = %v", st, c.Probe(0), c.Probe(0x100))
	}
}

// stampCache is the tag store as it was before the recency-ordered words:
// three way arrays and an LRU timestamp per way. It is the reference the
// packed Cache must match decision for decision.
type stampCache struct {
	cfg     Config
	nsets   uint64
	assoc   uint64 // cfg.Assoc hoisted out of the nested struct
	setMask uint64 // nsets-1 when nsets is a power of two
	pow2    bool

	// Flat way arrays, indexed by set*assoc + way. A tag encodes the line
	// address and a validity bit as line<<1|1 (0 when the way is invalid),
	// so the hot lookup is a single compare per way instead of a state
	// check plus a tag check. states mirrors validity: states[i] == Invalid
	// exactly when tags[i] == 0.
	tags   []uint64
	states []State
	stamps []uint64

	clock uint64 // LRU timestamp source

	// Stats counts accesses and hits; misses are derived.
	Accesses uint64
	Hits     uint64
}

// newStampCache builds a cache from cfg, panicking on invalid configuration (cache
// geometry is fixed by the experiment definitions, so an invalid one is a
// programming error, not a runtime condition).
func newStampCache(cfg Config) *stampCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := uint64(cfg.Sets())
	c := &stampCache{
		cfg:    cfg,
		nsets:  nsets,
		assoc:  uint64(cfg.Assoc),
		pow2:   nsets&(nsets-1) == 0,
		tags:   make([]uint64, nsets*uint64(cfg.Assoc)),
		states: make([]State, nsets*uint64(cfg.Assoc)),
		stamps: make([]uint64, nsets*uint64(cfg.Assoc)),
	}
	c.setMask = nsets - 1
	return c
}

// Config returns the cache geometry.
func (c *stampCache) Config() Config { return c.cfg }

func (c *stampCache) setOf(line uint64) uint64 {
	idx := line >> memref.LineShift
	if c.pow2 {
		return idx & c.setMask
	}
	return idx % c.nsets
}

// tagOf encodes line as a stored tag: the validity bit in bit 0 makes an
// invalid way (tag 0) unequal to every encoded line, including line 0.
func tagOf(line uint64) uint64 { return line<<1 | 1 }

// find returns the way index holding line within set, or -1.
func (c *stampCache) find(set, line uint64) int {
	key := tagOf(line)
	base := set * c.assoc
	for i, end := base, base+c.assoc; i < end; i++ {
		if c.tags[i] == key {
			return int(i)
		}
	}
	return -1
}

// Probe returns the state of line without updating LRU or statistics.
func (c *stampCache) Probe(line uint64) State {
	if i := c.find(c.setOf(line), line); i >= 0 {
		return c.states[i]
	}
	return Invalid
}

// Access looks up line, counts the access, and refreshes LRU on a hit.
// It returns the line's state; Invalid means miss.
func (c *stampCache) Access(line uint64) State {
	c.Accesses++
	if i := c.find(c.setOf(line), line); i >= 0 {
		c.clock++
		c.stamps[i] = c.clock
		c.Hits++
		return c.states[i]
	}
	return Invalid
}

// Insert places line with the given state, evicting the LRU way if the set is
// full. It returns the victim line and its prior state; vstate == Invalid
// means no eviction happened. Inserting a line that is already present just
// updates its state.
func (c *stampCache) Insert(line uint64, st State) (victim uint64, vstate State) {
	if st == Invalid {
		panic("cache: Insert with Invalid state")
	}
	set := c.setOf(line)
	if i := c.find(set, line); i >= 0 {
		c.states[i] = st
		c.clock++
		c.stamps[i] = c.clock
		return 0, Invalid
	}
	base := set * c.assoc
	victimIdx := base
	oldest := ^uint64(0)
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == 0 {
			victimIdx = i
			oldest = 0
			break
		}
		if c.stamps[i] < oldest {
			oldest = c.stamps[i]
			victimIdx = i
		}
	}
	victim, vstate = c.tags[victimIdx]>>1, c.states[victimIdx]
	c.tags[victimIdx] = tagOf(line)
	c.states[victimIdx] = st
	c.clock++
	c.stamps[victimIdx] = c.clock
	if vstate == Invalid {
		return 0, Invalid
	}
	return victim, vstate
}

// SetState changes the state of a resident line, returning false if the line
// is not present.
func (c *stampCache) SetState(line uint64, st State) bool {
	if st == Invalid {
		panic("cache: SetState to Invalid; use Invalidate")
	}
	if i := c.find(c.setOf(line), line); i >= 0 {
		c.states[i] = st
		return true
	}
	return false
}

// Invalidate removes line and returns its prior state (Invalid if absent).
func (c *stampCache) Invalidate(line uint64) State {
	if i := c.find(c.setOf(line), line); i >= 0 {
		st := c.states[i]
		c.states[i] = Invalid
		c.tags[i] = 0
		return st
	}
	return Invalid
}

// Misses returns Accesses - Hits.
func (c *stampCache) Misses() uint64 { return c.Accesses - c.Hits }

// ResetStats zeroes the access counters without disturbing cache contents;
// the experiment harness calls this at the end of warmup.
func (c *stampCache) ResetStats() {
	c.Accesses = 0
	c.Hits = 0
}

// ForEachResident calls fn for every valid line. Used by back-invalidation
// (inclusion) checks in tests and by the functional engine's integrity
// checks; it is not on the hot path.
func (c *stampCache) ForEachResident(fn func(line uint64, st State)) {
	for i := range c.tags {
		if c.states[i] != Invalid {
			fn(c.tags[i]>>1, c.states[i])
		}
	}
}

// Occupancy returns the number of valid lines.
func (c *stampCache) Occupancy() int {
	n := 0
	for i := range c.states {
		if c.states[i] != Invalid {
			n++
		}
	}
	return n
}
