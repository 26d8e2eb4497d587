package coherence

// lineTable is the directory's line -> entry store: an open-addressed,
// linear-probe hash table specialized for uint64 line addresses. The
// generic Go map spent a measurable slice of the whole simulation hashing
// and bucket-walking on every directory transaction (two map operations per
// read-modify-write); this table costs one multiplicative hash and a short
// contiguous probe, and ref() gives the read-modify-write paths a pointer so
// they touch the table once.
//
// Behaviour is identical to the map it replaced: only keyed lookups are
// performed (never iteration, so determinism cannot hinge on ordering), and
// the zero entry means "uncached, clean at home" exactly as before.
//
// Each slot holds its key beside its entry, 32 bytes, so a probe that finds
// its line reads one host cache line for both.
type lineTable struct {
	slots []slot
	mask  uint64
	shift uint // 64 - log2(len(slots)), for fibonacci hashing
	live  int
}

// slot is one place in the table.
type slot struct {
	key uint64 // line<<1|1 when occupied, 0 when empty (no tombstones)
	ent entry
}

// fibMul is 2^64 / phi, the standard fibonacci-hashing multiplier; line
// addresses are multiples of the cache line size, and the multiply spreads
// those strided keys across the high bits the index is taken from.
const fibMul = 0x9e3779b97f4a7c15

func newLineTable(sizeHint int) *lineTable {
	size := 1
	for size < sizeHint*2 {
		size <<= 1
	}
	if size < 1024 {
		size = 1024
	}
	t := &lineTable{}
	t.alloc(size)
	return t
}

func (t *lineTable) alloc(size int) {
	t.slots = make([]slot, size)
	t.mask = uint64(size - 1)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
}

func (t *lineTable) slotOf(key uint64) uint64 {
	return (key * fibMul) >> t.shift
}

// find returns a pointer to line's entry, or nil if absent. The pointer is
// valid only until the next insertion (growth moves entries).
func (t *lineTable) find(line uint64) *entry {
	key := line<<1 | 1
	for i := t.slotOf(key); ; i = (i + 1) & t.mask {
		switch s := &t.slots[i]; s.key {
		case key:
			return &s.ent
		case 0:
			return nil
		}
	}
}

// get returns line's entry by value; absent lines read as the zero entry.
func (t *lineTable) get(line uint64) entry {
	if p := t.find(line); p != nil {
		return *p
	}
	return entry{}
}

// ref returns a pointer to line's entry, inserting a zero entry if absent.
// The pointer is valid only until the next insertion.
func (t *lineTable) ref(line uint64) *entry {
	if t.live*4 >= len(t.slots)*3 {
		t.grow()
	}
	key := line<<1 | 1
	for i := t.slotOf(key); ; i = (i + 1) & t.mask {
		switch s := &t.slots[i]; s.key {
		case key:
			return &s.ent
		case 0:
			*s = slot{key: key}
			t.live++
			return &s.ent
		}
	}
}

// del removes line if present, using backward-shift deletion so the table
// never accumulates tombstones: every element between the vacated slot and
// the next empty slot that could have probed through the vacancy is moved
// back into it.
func (t *lineTable) del(line uint64) {
	key := line<<1 | 1
	i := t.slotOf(key)
	for ; ; i = (i + 1) & t.mask {
		if t.slots[i].key == key {
			break
		}
		if t.slots[i].key == 0 {
			return
		}
	}
	t.live--
	for j := i; ; {
		j = (j + 1) & t.mask
		if t.slots[j].key == 0 {
			break
		}
		// Element at j probed from home h. It may fill slot i only if i lies
		// on its probe path, i.e. the cyclic distance from h to i does not
		// exceed the distance from h to j.
		h := t.slotOf(t.slots[j].key)
		if (i-h)&t.mask <= (j-h)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot{}
}

func (t *lineTable) grow() {
	old := t.slots
	t.alloc(len(old) * 2)
	for _, s := range old {
		if s.key != 0 {
			t.place(s)
		}
	}
}

// place puts s, whose key the table does not hold, in the first empty slot
// of its probe path.
func (t *lineTable) place(s slot) {
	for j := t.slotOf(s.key); ; j = (j + 1) & t.mask {
		if t.slots[j].key == 0 {
			t.slots[j] = s
			return
		}
	}
}
