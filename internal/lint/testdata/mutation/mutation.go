// Package mutation is the snapshotcomplete mutation test: a copy of the
// real cache.VictimBuffer snapshot pair (victim.go + snapshot.go) with one
// serialization deleted — the round-robin replacement cursor `next` is
// neither written by SaveState nor restored by LoadState. Resuming such a
// snapshot would silently restart replacement at slot 0 and diverge from
// the uninterrupted run; the analyzer must catch the omission.
package mutation

import (
	"fmt"

	"oltpsim/internal/snapshot"
)

// State mirrors cache.State for the copied logic.
type State uint8

// States in increasing privilege order, as in the cache package.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// VictimBuffer is the copied type under mutation.
type VictimBuffer struct {
	entries []victimEntry
	next    int // want "VictimBuffer.next is mutated outside constructors but not referenced by SaveState or LoadState"
}

type victimEntry struct {
	line  uint64
	state State
}

// NewVictimBuffer returns a buffer with n entries.
func NewVictimBuffer(n int) *VictimBuffer {
	return &VictimBuffer{entries: make([]victimEntry, n)}
}

// Put stages an evicted line, returning the entry it displaced.
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

// SaveState is the mutated copy: the real pair writes the replacement
// cursor after the entries; here that line is deleted.
func (v *VictimBuffer) SaveState(e *snapshot.Encoder) {
	e.Int(len(v.entries))
	for _, ent := range v.entries {
		e.U64(ent.line)
		e.U8(uint8(ent.state))
	}
}

// LoadState is the mutated copy: the cursor restore is deleted alongside.
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
	if err := d.Err(); err != nil {
		return err
	}
	copy(v.entries, entries)
	return nil
}
