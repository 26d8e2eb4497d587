package cpu

import (
	"fmt"

	"oltpsim/internal/snapshot"
)

// SaveState writes the execution-time decomposition.
func (b *Breakdown) SaveState(e *snapshot.Encoder) {
	e.U64(b.Busy)
	e.U64(b.L2Hit)
	e.U64(b.Local)
	e.U64(b.Remote)
	e.U64(b.RemoteDirty)
	e.U64(b.Idle)
	e.U64(b.Kernel)
	e.U64(b.Instructions)
}

// LoadState restores the decomposition.
func (b *Breakdown) LoadState(d *snapshot.Decoder) {
	b.Busy = d.U64()
	b.L2Hit = d.U64()
	b.Local = d.U64()
	b.Remote = d.U64()
	b.RemoteDirty = d.U64()
	b.Idle = d.U64()
	b.Kernel = d.U64()
	b.Instructions = d.U64()
}

// SaveState writes the in-order model's clock and breakdown.
func (m *InOrder) SaveState(e *snapshot.Encoder) {
	e.U64(m.now)
	m.b.SaveState(e)
}

// LoadState restores the in-order model.
func (m *InOrder) LoadState(d *snapshot.Decoder) error {
	m.now = d.U64()
	m.b.LoadState(d)
	return d.Err()
}

// SaveState writes the out-of-order model's mutable state. The gate ring is
// dumped as its logical contents (oldest first): the ring's capacity and
// head position are representation, not architectural state, so the dump is
// canonical and Save→Load→Save is byte-stable.
func (m *OOO) SaveState(e *snapshot.Encoder) {
	e.U64(m.seq)
	e.F64(m.now)
	e.F64(m.lastMemComplete)
	e.F64s(m.ports[:])
	e.Int(m.nextPort)
	e.Int(m.gLen)
	for i := 0; i < m.gLen; i++ {
		g := m.gates[(m.gHead+i)%len(m.gates)]
		e.U64(g.seq)
		e.F64(g.t)
	}
	m.b.SaveState(e)
	for _, f := range m.frac {
		e.F64(f)
	}
}

// LoadState restores the out-of-order model, rebuilding the gate ring at
// its canonical (head-zero) layout.
func (m *OOO) LoadState(d *snapshot.Decoder) error {
	seq := d.U64()
	now := d.F64()
	lastMem := d.F64()
	ports := d.F64s()
	nextPort := d.Int()
	gLen := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if len(ports) != MemPorts {
		return fmt.Errorf("cpu: snapshot has %d memory ports, want %d", len(ports), MemPorts)
	}
	if nextPort < 0 || nextPort >= MemPorts {
		return fmt.Errorf("cpu: port cursor %d out of range", nextPort)
	}
	if gLen < 0 {
		return fmt.Errorf("cpu: negative gate count %d", gLen)
	}
	size := 256
	for size < gLen {
		size *= 2
	}
	gates := make([]gate, size)
	var prevSeq uint64
	for i := 0; i < gLen; i++ {
		g := gate{seq: d.U64(), t: d.F64()}
		if d.Err() != nil {
			return d.Err()
		}
		if i > 0 && g.seq < prevSeq {
			return fmt.Errorf("cpu: gate %d sequence %d not monotonic", i, g.seq)
		}
		prevSeq = g.seq
		gates[i] = g
	}
	m.b.LoadState(d)
	for i := range m.frac {
		m.frac[i] = d.F64()
	}
	if err := d.Err(); err != nil {
		return err
	}
	m.seq = seq
	m.now = now
	m.lastMemComplete = lastMem
	copy(m.ports[:], ports)
	m.nextPort = nextPort
	m.gates = gates
	m.gHead = 0
	m.gLen = gLen
	return nil
}
