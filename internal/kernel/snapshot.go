package kernel

import (
	"fmt"

	"oltpsim/internal/memref"
	"oltpsim/internal/snapshot"
)

// refBytes is the encoded size of one memref.Ref, used to bound the
// allocation a hostile length prefix could force.
const refBytes = 8 + 1 + 1 + 1 + 4

// encodeRefs writes each reference as its five fields (address, kind,
// kernel, dep-prev, instruction count), not as the packed word, so the
// checkpoint format does not depend on memref's bit layout.
func encodeRefs(e *snapshot.Encoder, refs []memref.Ref) {
	e.Int(len(refs))
	for _, r := range refs {
		e.U64(r.Addr())
		e.U8(uint8(r.Kind()))
		e.Bool(r.Kernel())
		e.Bool(r.DepPrev())
		e.U32(uint32(r.Instrs()))
	}
}

// decodeRefs reads what encodeRefs wrote and refuses a reference no
// generator can produce: an unknown kind, or an address or instruction
// count beyond what memref.Ref holds.
func decodeRefs(d *snapshot.Decoder) ([]memref.Ref, error) {
	n := d.Int()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n < 0 || n*refBytes > d.Remaining() {
		return nil, fmt.Errorf("kernel: ref count %d exceeds remaining input", n)
	}
	refs := make([]memref.Ref, n)
	for i := range refs {
		addr := d.U64()
		kind := memref.Kind(d.U8())
		kernel := d.Bool()
		depPrev := d.Bool()
		instrs := d.U32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		switch {
		case kind > memref.Store:
			return nil, fmt.Errorf("kernel: reference %d has unknown kind %d", i, kind)
		case addr > memref.MaxAddr:
			return nil, fmt.Errorf("kernel: reference %d address %#x exceeds %#x", i, addr, uint64(memref.MaxAddr))
		case instrs > memref.MaxInstrs:
			return nil, fmt.Errorf("kernel: reference %d instruction count %d exceeds %d", i, instrs, memref.MaxInstrs)
		}
		refs[i] = memref.New(addr, kind, kernel, depPrev, int(instrs))
	}
	return refs, nil
}

// SaveState writes every process's execution position and the per-CPU run
// queues. A directive keeps its Drain flag after it is consumed, so the flag
// is saved only while the directive is still pending.
func (s *Scheduler) SaveState(e *snapshot.Encoder) {
	e.Int(len(s.cpus))
	for ci := range s.cpus {
		c := &s.cpus[ci]
		e.Int(len(c.procs))
		for _, p := range c.procs {
			e.U8(uint8(p.state))
			e.U64(p.wakeAt)
			encodeRefs(e, p.buf.Refs)
			e.Int(p.pos)
			e.Bool(p.hasPending)
			e.U8(uint8(p.pending.Kind))
			e.U64(p.pending.Until)
			e.U64(p.pending.Dur)
			e.Bool(p.hasPending && p.pending.Drain)
			e.Int(p.sliceUsed)
		}
		cur := -1
		for i, p := range c.procs {
			if p == c.cur {
				cur = i
			}
		}
		e.Int(cur)
		encodeRefs(e, c.swBuf.Refs)
		e.Int(c.swPos)
	}
}

// LoadState restores a scheduler with the identical process topology.
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
			refs, err := decodeRefs(d)
			if err != nil {
				return err
			}
			pos := d.Int()
			hasPending := d.Bool()
			pending := Directive{Kind: DirectiveKind(d.U8()), Until: d.U64(), Dur: d.U64(), Drain: d.Bool()}
			sliceUsed := d.Int()
			if err := d.Err(); err != nil {
				return err
			}
			if state > stateDead {
				return fmt.Errorf("kernel: process %q has invalid state %d", p.Name, state)
			}
			if pending.Kind > Exit {
				return fmt.Errorf("kernel: process %q has invalid directive %d", p.Name, pending.Kind)
			}
			if pos < 0 || pos > len(refs) {
				return fmt.Errorf("kernel: process %q position %d outside %d refs", p.Name, pos, len(refs))
			}
			if pending.Drain && !hasPending {
				return fmt.Errorf("kernel: process %q has a drain flag without a pending directive", p.Name)
			}
			p.state = state
			p.wakeAt = wakeAt
			p.buf.Refs = append(p.buf.Refs[:0], refs...)
			p.pos = pos
			p.pending = pending
			p.hasPending = hasPending
			p.sliceUsed = sliceUsed
		}
		cur := d.Int()
		swRefs, err := decodeRefs(d)
		if err != nil {
			return err
		}
		swPos := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if cur < -1 || cur >= len(c.procs) {
			return fmt.Errorf("kernel: CPU %d current process %d out of range", ci, cur)
		}
		if swPos < 0 || swPos > len(swRefs) {
			return fmt.Errorf("kernel: CPU %d switch position %d outside %d refs", ci, swPos, len(swRefs))
		}
		if cur >= 0 {
			if c.procs[cur].state != stateRunning {
				return fmt.Errorf("kernel: CPU %d current process %q not running", ci, c.procs[cur].Name)
			}
			c.cur = c.procs[cur]
		} else {
			c.cur = nil
		}
		c.swBuf.Refs = append(c.swBuf.Refs[:0], swRefs...)
		c.swPos = swPos
	}
	return nil
}
