package cache

import (
	"fmt"

	"oltpsim/internal/memref"
	"oltpsim/internal/snapshot"
)

// SaveState writes the cache's mutable state: the way words, in recency
// order within each set, and the access counters. Each way is written as
// the 64-bit word line | state<<1 | valid (0 when empty), not as the tag it
// holds in memory, so the format does not depend on the set count. Geometry
// is not written — the loader rebuilds the cache from the same
// configuration and only the contents are restored — but the word count
// acts as a cross-check.
func (c *Cache) SaveState(e *snapshot.Encoder) {
	e.Grow(8 + 8*len(c.ways))
	e.Int(len(c.ways))
	for set := uint64(0); set < c.nsets; set++ {
		for _, w := range c.setWays(set) {
			if w == 0 {
				e.U64(0)
			} else {
				e.U64(c.lineAt(set, w) | uint64(w&flagBits))
			}
		}
	}
	e.U64(c.Accesses)
	e.U64(c.Hits)
}

// LoadState restores state saved by SaveState into a cache of identical
// geometry, validating every invariant the hot paths rely on: each word is
// empty or a valid line of its own set that the cache can hold, no set
// holds a line twice, and empty ways are last.
func (c *Cache) LoadState(d *snapshot.Decoder) error {
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(c.ways) {
		return fmt.Errorf("cache %s: snapshot has %d ways, want %d", c.cfg.Name, n, len(c.ways))
	}
	ways := make([]uint32, n)
	low := uint64(memref.LineBytes) - 1
	for i := range ways {
		// A decoder that has failed reads 0, an empty way, so a truncated
		// stream reaches the error check below.
		w := d.U64()
		first := uint64(i) - uint64(i)%c.assoc
		line := w &^ low
		set, tag := c.index(line)
		switch {
		case w == 0:
			continue
		case uint64(i) > first && ways[i-1] == 0:
			return fmt.Errorf("cache %s: way %d is occupied after an empty way", c.cfg.Name, i)
		case w&low&^flagBits != 0:
			return fmt.Errorf("cache %s: way %d word %#x has stray low bits", c.cfg.Name, i, w)
		case w&validBit == 0 || w&stateBits == 0:
			return fmt.Errorf("cache %s: way %d word %#x is not a valid line with a state", c.cfg.Name, i, w)
		case line > memref.MaxAddr || tag > maxTag:
			return fmt.Errorf("cache %s: way %d holds line %#x, beyond the lines it can hold", c.cfg.Name, i, line)
		case set*c.assoc != first:
			return fmt.Errorf("cache %s: way %d holds line %#x outside its set", c.cfg.Name, i, line)
		}
		key := uint32(tag)<<tagShift | validBit
		if rank(ways[first:i], uint64(key)) >= 0 {
			return fmt.Errorf("cache %s: way %d holds line %#x twice in its set", c.cfg.Name, i, line)
		}
		ways[i] = key | uint32(w&stateBits)
	}
	accesses := d.U64()
	hits := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if hits > accesses {
		return fmt.Errorf("cache %s: %d hits exceed %d accesses", c.cfg.Name, hits, accesses)
	}
	copy(c.ways, ways)
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
