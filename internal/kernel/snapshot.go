package kernel

import (
	"fmt"

	"oltpsim/internal/memref"
	"oltpsim/internal/snapshot"
)

// encodeRefs writes each reference as its memref word.
func encodeRefs(e *snapshot.Encoder, refs []memref.Ref) {
	e.Grow(8 + 8*len(refs))
	e.Int(len(refs))
	for _, r := range refs {
		e.U64(r.Word())
	}
}

// decodeRefs reads what encodeRefs wrote into dst's storage and refuses,
// by its index, a word memref.FromWord refuses.
func decodeRefs(d *snapshot.Decoder, dst []memref.Ref) ([]memref.Ref, error) {
	n := d.Int()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n < 0 || n > d.Remaining()/8 {
		return nil, fmt.Errorf("kernel: ref count %d exceeds remaining input", n)
	}
	refs := dst[:0]
	for i := 0; i < n; i++ {
		r, err := memref.FromWord(d.U64())
		if err != nil {
			return nil, fmt.Errorf("kernel: reference %d: %w", i, err)
		}
		refs = append(refs, r)
	}
	return refs, d.Err()
}

// SaveState writes every process's execution position and the per-CPU run
// queues: for each CPU, its processes, then the current one, its time
// slice, and the references still to run of its buffer, the first of them
// the rest of the context-switch path. Consumed references are not saved;
// a caller holding part of a run gives it back with Unread first. A
// preempted process saves the references it spilled.
func (s *Scheduler) SaveState(e *snapshot.Encoder) {
	e.Int(len(s.cpus))
	for ci := range s.cpus {
		c := &s.cpus[ci]
		e.Int(len(c.procs))
		cur := -1
		for i, p := range c.procs {
			if p == c.cur {
				cur = i
			}
			e.U8(uint8(p.state))
			e.U64(p.wakeAt)
			encodeRefs(e, p.spill)
			e.U8(uint8(p.pending.Kind))
			e.U64(p.pending.Until)
			e.U64(p.pending.Dur)
			e.Bool(p.pending.Drain)
		}
		e.Int(cur)
		e.Int(c.sliceUsed)
		e.Int(max(c.swEnd-c.segPos, 0))
		encodeRefs(e, c.seg.Refs[c.segPos:])
	}
}

// LoadState restores a scheduler with the identical process topology. Only
// a ready process that is not its CPU's current one (a preempted process)
// may hold spilled references, the current process must be ready, and only
// a CPU with a current process may hold references, at least as many as
// its context-switch path.
func (s *Scheduler) LoadState(d *snapshot.Decoder) error {
	if n := d.Int(); d.Err() == nil && n != len(s.cpus) {
		return fmt.Errorf("kernel: snapshot has %d CPUs, want %d", n, len(s.cpus))
	}
	if d.Err() != nil {
		return d.Err()
	}
	for ci := range s.cpus {
		c := &s.cpus[ci]
		if n := d.Int(); d.Err() == nil && n != len(c.procs) {
			return fmt.Errorf("kernel: CPU %d has %d processes in snapshot, want %d", ci, n, len(c.procs))
		}
		for _, p := range c.procs {
			state := procState(d.U8())
			wakeAt := d.U64()
			spill, err := decodeRefs(d, p.spill)
			if err != nil {
				return err
			}
			pending := Directive{Kind: DirectiveKind(d.U8()), Until: d.U64(), Dur: d.U64(), Drain: d.Bool()}
			if err := d.Err(); err != nil {
				return err
			}
			if state > stateDead {
				return fmt.Errorf("kernel: process %q has invalid state %d", p.Name, state)
			}
			if pending.Kind > Exit {
				return fmt.Errorf("kernel: process %q has invalid directive %d", p.Name, pending.Kind)
			}
			if len(spill) > 0 && state != stateReady {
				return fmt.Errorf("kernel: process %q holds %d spilled references but is %s", p.Name, len(spill), state.name())
			}
			p.state = state
			p.wakeAt = wakeAt
			p.spill = spill
			p.pending = pending
		}
		cur := d.Int()
		sliceUsed := d.Int()
		switchLen := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if cur < -1 || cur >= len(c.procs) {
			return fmt.Errorf("kernel: CPU %d current process %d out of range", ci, cur)
		}
		refs, err := decodeRefs(d, c.seg.Refs)
		if err != nil {
			return err
		}
		c.cur = nil
		if cur < 0 {
			if len(refs) > 0 || switchLen != 0 {
				return fmt.Errorf("kernel: CPU %d holds %d references, %d of them its context-switch path, but no current process",
					ci, len(refs), switchLen)
			}
		} else {
			p := c.procs[cur]
			switch {
			case p.state != stateReady:
				return fmt.Errorf("kernel: CPU %d current process %q is %s", ci, p.Name, p.state.name())
			case len(p.spill) > 0:
				return fmt.Errorf("kernel: process %q holds %d spilled references but is running", p.Name, len(p.spill))
			}
			c.cur = p
		}
		if switchLen < 0 || switchLen > len(refs) {
			return fmt.Errorf("kernel: CPU %d context-switch path of %d references exceeds the %d it holds", ci, switchLen, len(refs))
		}
		c.seg.Refs, c.segPos, c.swEnd = refs, 0, switchLen
		c.sliceUsed = sliceUsed
	}
	return nil
}
