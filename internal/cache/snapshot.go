package cache

import (
	"fmt"

	"oltpsim/internal/memref"
	"oltpsim/internal/snapshot"
)

// SaveState writes the cache's mutable state: the way count, the number of
// resident ways, each resident way's word in ascending set order and
// recency order within a set, then the access counters. A word is the
// 64-bit line | state<<1 | valid, not the tag the way holds in memory, so
// the format does not depend on the set count and names the set of its
// line. Geometry is not written — the loader rebuilds the cache from the
// same configuration and only the contents are restored — but the way
// count acts as a cross-check. Empty ways are not written: a warmed L2
// holds a line in a fraction of its ways.
func (c *Cache) SaveState(e *snapshot.Encoder) {
	resident := c.Occupancy()
	e.Grow(8*4 + 8*resident)
	e.Int(len(c.ways))
	e.Int(resident)
	for set := uint64(0); set < c.nsets; set++ {
		for _, w := range c.setWays(set) {
			if w == 0 {
				break // empty ways are last
			}
			e.U64(c.lineAt(set, w) | uint64(w&flagBits))
		}
	}
	e.U64(c.Accesses)
	e.U64(c.Hits)
}

// LoadState restores state saved by SaveState into a cache of identical
// geometry, placing each word in the set its line names and validating
// every invariant the hot paths rely on: each word is a valid line the
// cache can hold, the sets come in ascending order, no set holds more
// lines than its ways or a line twice, and the resident count fits both
// the ways and the input. The words of a set fill its ways from the
// front, so empty ways stay last. The words are decoded into the cache's
// own way array, so a load that fails leaves the cache partly restored,
// and it must be discarded, as core.System.Load documents for a machine.
func (c *Cache) LoadState(d *snapshot.Decoder) error {
	n := d.Int()
	resident := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	switch {
	case n != len(c.ways):
		return fmt.Errorf("cache %s: snapshot has %d ways, want %d", c.cfg.Name, n, len(c.ways))
	case resident < 0 || resident > n:
		return fmt.Errorf("cache %s: %d resident ways outside 0..%d ways", c.cfg.Name, resident, n)
	case resident > d.Remaining()/8:
		return fmt.Errorf("cache %s: %d resident ways exceed the remaining input", c.cfg.Name, resident)
	}
	ways := c.ways
	clear(ways)
	low := uint64(memref.LineBytes) - 1
	var set, filled uint64 // the set being filled, and its words so far
	for i := 0; i < resident; i++ {
		w := d.U64()
		line := w &^ low
		s, tag := c.index(line)
		switch {
		case w&low&^flagBits != 0:
			return fmt.Errorf("cache %s: way %d word %#x has stray low bits", c.cfg.Name, i, w)
		case w&validBit == 0 || w&stateBits == 0:
			return fmt.Errorf("cache %s: way %d word %#x is not a valid line with a state", c.cfg.Name, i, w)
		case line > memref.MaxAddr || tag > maxTag:
			return fmt.Errorf("cache %s: way %d holds line %#x, beyond the lines it can hold", c.cfg.Name, i, line)
		case s < set:
			return fmt.Errorf("cache %s: way %d holds line %#x of set %d after set %d", c.cfg.Name, i, line, s, set)
		}
		if s > set {
			set, filled = s, 0
		}
		if filled == c.assoc {
			return fmt.Errorf("cache %s: way %d holds line %#x in set %d, which has only %d ways", c.cfg.Name, i, line, s, c.assoc)
		}
		row := ways[s*c.assoc : s*c.assoc+filled+1]
		key := uint32(tag)<<tagShift | validBit
		if rank(row[:filled], uint64(key)) >= 0 {
			return fmt.Errorf("cache %s: way %d holds line %#x twice in its set", c.cfg.Name, i, line)
		}
		row[filled] = key | uint32(w&stateBits)
		filled++
	}
	accesses := d.U64()
	hits := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if hits > accesses {
		return fmt.Errorf("cache %s: %d hits exceed %d accesses", c.cfg.Name, hits, accesses)
	}
	c.Accesses = accesses
	c.Hits = hits
	return nil
}

// SaveState writes the victim buffer contents and replacement cursor.
func (v *VictimBuffer) SaveState(e *snapshot.Encoder) {
	e.Int(len(v.entries))
	for _, ent := range v.entries {
		e.U64(ent.line)
		e.U8(uint8(ent.state))
	}
	e.Int(v.next)
}

// LoadState restores a buffer of identical size.
func (v *VictimBuffer) LoadState(d *snapshot.Decoder) error {
	n := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(v.entries) {
		return fmt.Errorf("victim buffer: snapshot has %d entries, want %d", n, len(v.entries))
	}
	entries := make([]victimEntry, n)
	for i := range entries {
		entries[i] = victimEntry{line: d.U64(), state: State(d.U8())}
	}
	next := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	for i, ent := range entries {
		if ent.state > Modified {
			return fmt.Errorf("victim buffer: entry %d has invalid state %d", i, ent.state)
		}
	}
	if (n == 0 && next != 0) || (n > 0 && (next < 0 || next >= n)) {
		return fmt.Errorf("victim buffer: cursor %d out of range for %d entries", next, n)
	}
	copy(v.entries, entries)
	v.next = next
	return nil
}
