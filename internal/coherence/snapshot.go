package coherence

import (
	"fmt"
	"slices"

	"oltpsim/internal/snapshot"
)

// SaveState writes the directory's line table and protocol counters. The
// table is dumped as its live (key, entry) pairs in ascending key order: the
// canonical ordering makes Save→Load→Save byte-stable regardless of the
// insertion history that produced the slot layout (nothing ever iterates
// the table, so neither the layout nor the allocated size is architectural
// state).
func (d *Directory) SaveState(e *snapshot.Encoder) {
	t := d.entries
	keys := make([]uint64, 0, t.live)
	for _, s := range t.slots {
		if s.key != 0 {
			keys = append(keys, s.key)
		}
	}
	slices.Sort(keys)
	e.Grow(8 + savedEntryBytes*len(keys))
	e.Int(len(keys))
	for _, k := range keys {
		ent := t.find(k >> 1)
		e.U64(k)
		for _, w := range ent.sharers {
			e.U64(w)
		}
		e.I64(int64(ent.owner))
		e.Bool(ent.dirty)
		e.Bool(ent.inRAC)
	}
	e.U64s(d.Stats.Reads[:])
	e.U64s(d.Stats.Writes[:])
	e.U64(d.Stats.Invalidations)
	e.U64(d.Stats.Writebacks)
}

// savedEntryBytes is the encoded size of one (key, entry) pair: key,
// sharer words, owner, dirty and inRAC.
const savedEntryBytes = 8 + 8*sharerWords + 8 + 1 + 1

// LoadState rebuilds the line table by probe-inserting the dumped pairs
// into a fresh table sized from their count, then restores the counters.
// The count is bounded by the input that could back it, so a hostile count
// cannot force a large allocation.
func (d *Directory) LoadState(dec *snapshot.Decoder) error {
	live := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if live < 0 || live > dec.Remaining()/savedEntryBytes {
		return fmt.Errorf("coherence: %d live entries exceed the remaining input", live)
	}
	t := newLineTable(live)
	var prevKey uint64
	for i := 0; i < live; i++ {
		key := dec.U64()
		var sh sharerSet
		for w := range sh {
			sh[w] = dec.U64()
		}
		ent := entry{
			sharers: sh,
			owner:   int16(dec.I64()),
			dirty:   dec.Bool(),
			inRAC:   dec.Bool(),
		}
		if dec.Err() != nil {
			return dec.Err()
		}
		if key&1 == 0 {
			return fmt.Errorf("coherence: entry %d key %#x missing validity bit", i, key)
		}
		if i > 0 && key <= prevKey {
			return fmt.Errorf("coherence: entry %d key %#x not in ascending order", i, key)
		}
		prevKey = key
		if int(ent.owner) < 0 || int(ent.owner) > d.nodes {
			return fmt.Errorf("coherence: entry %d owner %d out of range 0..%d", i, ent.owner, d.nodes)
		}
		if ent.sharers.beyond(d.nodes) {
			return fmt.Errorf("coherence: entry %d sharer bits beyond %d nodes", i, d.nodes)
		}
		if ent.sharers.empty() && !ent.hasOwner() {
			return fmt.Errorf("coherence: entry %d is the zero entry and should be absent", i)
		}
		t.place(slot{key: key, ent: ent})
	}
	t.live = live
	stats := Stats{}
	reads := dec.U64s()
	writes := dec.U64s()
	stats.Invalidations = dec.U64()
	stats.Writebacks = dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	if len(reads) != int(NumCategories) || len(writes) != int(NumCategories) {
		return fmt.Errorf("coherence: stats have %d/%d categories, want %d", len(reads), len(writes), NumCategories)
	}
	copy(stats.Reads[:], reads)
	copy(stats.Writes[:], writes)
	d.entries = t
	d.Stats = stats
	return nil
}
