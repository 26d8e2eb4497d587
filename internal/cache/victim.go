package cache

// VictimBuffer models the small fully-associative buffer of recently evicted
// L2 lines shown on the Alpha 21364 block diagram (paper Figure 1, "L2
// Victim Buffers"). Its architectural purpose on the 21364 is to stage dirty
// victims on their way to memory so that the miss fill need not wait for the
// writeback; we model that by letting an access that hits a buffered victim
// count as an L2 hit. It is disabled in the paper-fidelity configurations
// (the Figure 3 latencies are end-to-end and already assume it), but is
// available for the ablation benchmarks.
type VictimBuffer struct {
	entries []victimEntry
	next    int // round-robin (FIFO) replacement
}

type victimEntry struct {
	line  uint64
	state State
}

// NewVictimBuffer returns a buffer with n entries; n == 0 yields a buffer
// that never hits, so callers need no nil checks.
func NewVictimBuffer(n int) *VictimBuffer {
	return &VictimBuffer{entries: make([]victimEntry, n)}
}

// Put stages an evicted line, returning the entry it displaced (dstate ==
// Invalid if none). The caller must complete the displaced entry's writeback
// or replacement hint. A zero-sized buffer reports the line itself as
// displaced, so callers need no special case.
func (v *VictimBuffer) Put(line uint64, st State) (displaced uint64, dstate State) {
	if st == Invalid {
		return 0, Invalid
	}
	if len(v.entries) == 0 {
		return line, st
	}
	displaced, dstate = v.entries[v.next].line, v.entries[v.next].state
	v.entries[v.next] = victimEntry{line: line, state: st}
	v.next = (v.next + 1) % len(v.entries)
	return displaced, dstate
}

// Take removes and returns the state of line if buffered.
func (v *VictimBuffer) Take(line uint64) (State, bool) {
	for i := range v.entries {
		if v.entries[i].state != Invalid && v.entries[i].line == line {
			st := v.entries[i].state
			v.entries[i].state = Invalid
			return st, true
		}
	}
	return Invalid, false
}

// Downgrade demotes a buffered Modified/Exclusive line to Shared, returning
// its prior state (Invalid if absent).
func (v *VictimBuffer) Downgrade(line uint64) State {
	for i := range v.entries {
		if v.entries[i].state != Invalid && v.entries[i].line == line {
			st := v.entries[i].state
			v.entries[i].state = Shared
			return st
		}
	}
	return Invalid
}

// Invalidate drops line if buffered, returning its prior state. The
// coherence layer must invalidate victim buffers along with the caches.
func (v *VictimBuffer) Invalidate(line uint64) State {
	for i := range v.entries {
		if v.entries[i].state != Invalid && v.entries[i].line == line {
			st := v.entries[i].state
			v.entries[i].state = Invalid
			return st
		}
	}
	return Invalid
}
