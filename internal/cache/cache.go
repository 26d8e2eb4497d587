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

// A way holds one uint32 word: the valid bit in bit 0, the State in bits
// 1-2 and the line's tag in bits 3-31. The tag is the line index divided by
// the set count, the part of the line the set index does not already say,
// so a set's words rebuild their lines as (tag*sets + set) << LineShift. An
// empty way is 0; the valid bit keeps tag 0 distinct from it, so a lookup
// is one masked compare per way.
//
// The bit positions are those of a checkpoint's way word, the 64-bit line
// address with the same valid and state bits below it, so the constants
// are untyped and serve both.
const (
	validBit  = 1
	stateBits = 3 << 1
	flagBits  = validBit | stateBits
	tagShift  = 3
	maxTag    = 1<<(32-tagShift) - 1
)

// MinSets is the fewest sets for which every line up to memref.MaxAddr has
// a tag that fits a way word: 2^34 line indexes over 2^29 tags. core
// refuses a machine with a smaller L2 or RAC. A smaller cache, which only
// tests build, holds the lines whose tags fit, reports any other as a miss
// and panics on its Insert.
const MinSets = (memref.MaxAddr>>memref.LineShift + 1) / (maxTag + 1)

func stateOf(w uint32) State { return State(w >> 1 & 3) }

// Cache is a set-associative tag store with per-set LRU replacement.
type Cache struct {
	cfg      Config
	nsets    uint64
	assoc    uint64 // cfg.Assoc hoisted out of the nested struct
	setMask  uint64 // nsets-1 when nsets is a power of two
	setShift uint   // log2(nsets) when nsets is a power of two
	pow2     bool

	// ways holds set s's words at [s*assoc, (s+1)*assoc), most recently
	// used first and empty ways last. An Access hit or an Insert moves its
	// word to the front, so the set's last word is the LRU victim: the
	// line whose last Access hit or Insert is oldest.
	ways []uint32

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
		cfg:     cfg,
		nsets:   nsets,
		assoc:   uint64(cfg.Assoc),
		setMask: nsets - 1,
		pow2:    nsets&(nsets-1) == 0,
		ways:    make([]uint32, nsets*uint64(cfg.Assoc)),
	}
	for n := nsets; n > 1; n >>= 1 {
		c.setShift++
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// index splits line into its set and its tag.
func (c *Cache) index(line uint64) (set, tag uint64) {
	idx := line >> memref.LineShift
	if c.pow2 {
		return idx & c.setMask, idx >> c.setShift
	}
	return idx % c.nsets, idx / c.nsets
}

// setWays returns set's words, in recency order.
func (c *Cache) setWays(set uint64) []uint32 {
	base := set * c.assoc
	return c.ways[base : base+c.assoc : base+c.assoc]
}

// lineAt rebuilds the line address a word of set holds.
func (c *Cache) lineAt(set uint64, w uint32) uint64 {
	return (uint64(w>>tagShift)*c.nsets + set) << memref.LineShift
}

// locate returns line's set and the key rank looks line up by: its tag
// and the valid bit.
func (c *Cache) locate(line uint64) (ways []uint32, key uint64) {
	set, tag := c.index(line)
	return c.setWays(set), tag<<tagShift | validBit
}

// rank returns the rank of the word whose tag and valid bit equal key, or
// -1. The compare is 64 bits wide, so the key of a tag that does not fit a
// word (only a cache under MinSets sets meets one) matches no way.
func rank(ways []uint32, key uint64) int {
	for i, w := range ways {
		if uint64(w&^stateBits) == key {
			return i
		}
	}
	return -1
}

// toFront moves ways[i] to rank 0, shifting the more recent words down one.
func toFront(ways []uint32, i int) {
	w := ways[i]
	for ; i > 0; i-- {
		ways[i] = ways[i-1]
	}
	ways[0] = w
}

// Probe returns the state of line without updating LRU or statistics.
func (c *Cache) Probe(line uint64) State {
	ways, key := c.locate(line)
	if i := rank(ways, key); i >= 0 {
		return stateOf(ways[i])
	}
	return Invalid
}

// Access looks up line, counts the access, and refreshes LRU on a hit.
// It returns the line's state; Invalid means miss.
func (c *Cache) Access(line uint64) State {
	c.Accesses++
	ways, key := c.locate(line)
	if i := rank(ways, key); i >= 0 {
		toFront(ways, i)
		c.Hits++
		return stateOf(ways[0])
	}
	return Invalid
}

// Insert places line, a line-aligned address, with the given state,
// evicting the LRU way if the set is full. It returns the victim line and
// its prior state; vstate == Invalid means no eviction happened. Inserting
// a line that is already present just updates its state. A line whose tag
// does not fit a word (only a cache under MinSets sets has one) panics.
func (c *Cache) Insert(line uint64, st State) (victim uint64, vstate State) {
	if st == Invalid {
		panic("cache: Insert with Invalid state")
	}
	if memref.LineOf(line) != line {
		panic("cache: Insert of an unaligned line")
	}
	set, tag := c.index(line)
	if tag > maxTag {
		panic(fmt.Sprintf("cache %s: Insert of line %#x, beyond the lines %d sets can hold", c.cfg.Name, line, c.nsets))
	}
	ways := c.setWays(set)
	key := uint32(tag)<<tagShift | validBit
	// The word dropped is line's own if present, else the last: an empty
	// way if there is one, otherwise the least recently used line.
	i := rank(ways, uint64(key))
	if i < 0 {
		i = len(ways) - 1
	}
	old := ways[i]
	ways[i] = key | uint32(st)<<1
	toFront(ways, i)
	if old == 0 || old&^stateBits == key {
		return 0, Invalid
	}
	return c.lineAt(set, old), stateOf(old)
}

// SetState changes the state of a resident line, returning false if the line
// is not present.
func (c *Cache) SetState(line uint64, st State) bool {
	if st == Invalid {
		panic("cache: SetState to Invalid; use Invalidate")
	}
	ways, key := c.locate(line)
	if i := rank(ways, key); i >= 0 {
		ways[i] = ways[i]&^stateBits | uint32(st)<<1
		return true
	}
	return false
}

// Invalidate removes line and returns its prior state (Invalid if absent).
// The less recent words close the gap, so empty ways stay last.
func (c *Cache) Invalidate(line uint64) State {
	ways, key := c.locate(line)
	if i := rank(ways, key); i >= 0 {
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
	for i, w := range c.ways {
		if w != 0 {
			fn(c.lineAt(uint64(i)/c.assoc, w), stateOf(w))
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
