// Package cache implements the set-associative cache model used for the L1
// instruction, L1 data, and L2 caches of every simulated processor, plus the
// shadow structures that classify misses into cold, capacity, and conflict
// misses (the paper's Section 3/8 argument that large direct-mapped off-chip
// caches mostly remove conflict misses hinges on this classification).
//
// The model is a tag store only: data values live in the functional workload
// engine, so the cache tracks presence and coherence state per 64-byte line.
// Replacement is true LRU within a set, kept as the order of the set's ways.
package cache

import (
	"fmt"

	"oltpsim/internal/memref"
)

// State is the coherence state of a line in a cache. The same enum serves the
// private L1s (which only use Invalid/Exclusive/Modified relative to their
// L2) and the L2s (which hold directory-visible MESI states).
type State uint8

const (
	// Invalid: line not present.
	Invalid State = iota
	// Shared: present read-only; other caches may hold copies.
	Shared
	// Exclusive: present read-only but guaranteed sole copy; a write may
	// upgrade silently to Modified without a directory transaction.
	Exclusive
	// Modified: present, writable, dirty with respect to memory.
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// Config describes one cache.
type Config struct {
	// Name appears in statistics output (e.g. "L1I", "L2").
	Name string
	// SizeBytes is the total capacity. It must be a multiple of
	// memref.LineBytes*Assoc.
	SizeBytes int64
	// Assoc is the number of ways per set (1 = direct mapped).
	Assoc int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int {
	return int(c.SizeBytes) / (memref.LineBytes * c.Assoc)
}

// Validate reports a descriptive error for impossible configurations.
func (c Config) Validate() error {
	if c.Assoc <= 0 {
		return fmt.Errorf("cache %s: associativity %d must be positive", c.Name, c.Assoc)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%int64(memref.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache %s: size %d is not a multiple of line*assoc = %d",
			c.Name, c.SizeBytes, memref.LineBytes*c.Assoc)
	}
	if c.Sets() < 1 {
		return fmt.Errorf("cache %s: zero sets", c.Name)
	}
	return nil
}

// A way holds one word: a resident line's address, which is line-aligned,
// with the valid bit in bit 0 and the State in bits 1-2, inside the low
// bits a memref.LineBytes line leaves clear. An empty way is 0; the valid
// bit keeps line 0 distinct from it, so a lookup is one masked compare per
// way.
const (
	validBit  uint64 = 1
	stateBits uint64 = 3 << 1
	flagBits         = validBit | stateBits
)

func stateOf(w uint64) State { return State(w >> 1 & 3) }

// Cache is a set-associative tag store with per-set LRU replacement.
type Cache struct {
	cfg     Config
	nsets   uint64
	assoc   uint64 // cfg.Assoc hoisted out of the nested struct
	setMask uint64 // nsets-1 when nsets is a power of two
	pow2    bool

	// ways holds set s's words at [s*assoc, (s+1)*assoc), most recently
	// used first and empty ways last. An Access hit or an Insert moves its
	// word to the front, so the set's last word is the LRU victim: the
	// line whose last Access hit or Insert is oldest.
	ways []uint64

	// Stats counts accesses and hits; misses are derived.
	Accesses uint64
	Hits     uint64
}

// New builds a cache from cfg, panicking on invalid configuration (cache
// geometry is fixed by the experiment definitions, so an invalid one is a
// programming error, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := uint64(cfg.Sets())
	c := &Cache{
		cfg:   cfg,
		nsets: nsets,
		assoc: uint64(cfg.Assoc),
		pow2:  nsets&(nsets-1) == 0,
		ways:  make([]uint64, nsets*uint64(cfg.Assoc)),
	}
	c.setMask = nsets - 1
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setOf(line uint64) uint64 {
	idx := line >> memref.LineShift
	if c.pow2 {
		return idx & c.setMask
	}
	return idx % c.nsets
}

// set returns the ways of line's set, in recency order.
func (c *Cache) set(line uint64) []uint64 {
	base := c.setOf(line) * c.assoc
	return c.ways[base : base+c.assoc : base+c.assoc]
}

// find returns line's rank within ways, or -1.
func find(ways []uint64, line uint64) int {
	key := line | validBit
	for i, w := range ways {
		if w&^stateBits == key {
			return i
		}
	}
	return -1
}

// toFront moves ways[i] to rank 0, shifting the more recent words down one.
func toFront(ways []uint64, i int) {
	w := ways[i]
	for ; i > 0; i-- {
		ways[i] = ways[i-1]
	}
	ways[0] = w
}

// Probe returns the state of line without updating LRU or statistics.
func (c *Cache) Probe(line uint64) State {
	ways := c.set(line)
	if i := find(ways, line); i >= 0 {
		return stateOf(ways[i])
	}
	return Invalid
}

// Access looks up line, counts the access, and refreshes LRU on a hit.
// It returns the line's state; Invalid means miss.
func (c *Cache) Access(line uint64) State {
	c.Accesses++
	ways := c.set(line)
	if i := find(ways, line); i >= 0 {
		toFront(ways, i)
		c.Hits++
		return stateOf(ways[0])
	}
	return Invalid
}

// Insert places line, a line-aligned address, with the given state,
// evicting the LRU way if the set is full. It returns the victim line and
// its prior state; vstate == Invalid means no eviction happened. Inserting
// a line that is already present just updates its state.
func (c *Cache) Insert(line uint64, st State) (victim uint64, vstate State) {
	if st == Invalid {
		panic("cache: Insert with Invalid state")
	}
	if memref.LineOf(line) != line {
		panic("cache: Insert of an unaligned line")
	}
	ways := c.set(line)
	// The word dropped is line's own if present, else the last: an empty
	// way if there is one, otherwise the least recently used line.
	i := find(ways, line)
	if i < 0 {
		i = len(ways) - 1
	}
	old := ways[i]
	ways[i] = line | uint64(st)<<1 | validBit
	toFront(ways, i)
	if old == 0 || old&^stateBits == line|validBit {
		return 0, Invalid
	}
	return old &^ flagBits, stateOf(old)
}

// SetState changes the state of a resident line, returning false if the line
// is not present.
func (c *Cache) SetState(line uint64, st State) bool {
	if st == Invalid {
		panic("cache: SetState to Invalid; use Invalidate")
	}
	ways := c.set(line)
	if i := find(ways, line); i >= 0 {
		ways[i] = ways[i]&^stateBits | uint64(st)<<1
		return true
	}
	return false
}

// Invalidate removes line and returns its prior state (Invalid if absent).
// The less recent words close the gap, so empty ways stay last.
func (c *Cache) Invalidate(line uint64) State {
	ways := c.set(line)
	if i := find(ways, line); i >= 0 {
		st := stateOf(ways[i])
		copy(ways[i:], ways[i+1:])
		ways[len(ways)-1] = 0
		return st
	}
	return Invalid
}

// Misses returns Accesses - Hits.
func (c *Cache) Misses() uint64 { return c.Accesses - c.Hits }

// ResetStats zeroes the access counters without disturbing cache contents;
// the experiment harness calls this at the end of warmup.
func (c *Cache) ResetStats() {
	c.Accesses = 0
	c.Hits = 0
}

// ForEachResident calls fn for every valid line. Used by back-invalidation
// (inclusion) checks in tests and by the functional engine's integrity
// checks; it is not on the hot path.
func (c *Cache) ForEachResident(fn func(line uint64, st State)) {
	for _, w := range c.ways {
		if w != 0 {
			fn(w&^flagBits, stateOf(w))
		}
	}
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, w := range c.ways {
		if w != 0 {
			n++
		}
	}
	return n
}
