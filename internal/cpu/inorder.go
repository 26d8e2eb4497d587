package cpu

import "oltpsim/internal/memref"

// InOrder is the single-issue pipelined processor model (paper Section 2.2:
// SimOS-Alpha's medium-speed model, used for the bulk of the study). Every
// instruction costs one busy cycle; every memory stall is fully exposed —
// the memory system is sequentially consistent, so stores stall exactly like
// loads.
type InOrder struct {
	now uint64
	b   Breakdown
}

// NewInOrder returns a model with its clock at zero.
func NewInOrder() *InOrder { return &InOrder{} }

// Account implements Model.
func (m *InOrder) Account(r memref.Ref, lat uint32, cat StallCat) {
	if r.Kind() == memref.IFetch {
		n := uint64(r.Instrs())
		m.now += n
		m.b.Busy += n
		m.b.Instructions += n
		if r.Kernel() {
			m.b.Kernel += n
		}
	}
	if lat > 0 {
		m.now += uint64(lat)
		m.b.charge(cat, uint64(lat), r.Kernel())
	}
}

// Now implements Model.
func (m *InOrder) Now() uint64 { return m.now }

// AdvanceTo implements Model.
func (m *InOrder) AdvanceTo(t uint64) {
	if t > m.now {
		m.b.Idle += t - m.now
		m.now = t
	}
}

// Breakdown implements Model.
func (m *InOrder) Breakdown() *Breakdown { return &m.b }

// ResetStats implements Model.
func (m *InOrder) ResetStats() { m.b = Breakdown{} }
