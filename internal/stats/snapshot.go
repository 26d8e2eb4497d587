package stats

import (
	"fmt"

	"oltpsim/internal/coherence"
	"oltpsim/internal/snapshot"
)

// SaveState writes the miss table.
func (m *MissTable) SaveState(e *snapshot.Encoder) {
	e.U64s(m.I[:])
	e.U64s(m.D[:])
	e.U64(m.RACHitsI)
	e.U64(m.RACHitsD)
	e.U64s(m.Upgrades[:])
}

// LoadState restores the miss table. Counter writes live here, in the stats
// package, so the counterowner analyzer's single-accumulation-point rule
// holds for snapshot restore exactly as it does for simulation.
func (m *MissTable) LoadState(d *snapshot.Decoder) error {
	i := d.U64s()
	dd := d.U64s()
	racI := d.U64()
	racD := d.U64()
	up := d.U64s()
	if err := d.Err(); err != nil {
		return err
	}
	nc := int(coherence.NumCategories)
	if len(i) != nc || len(dd) != nc || len(up) != nc {
		return fmt.Errorf("stats: miss table has %d/%d/%d categories, want %d", len(i), len(dd), len(up), nc)
	}
	t := MissTable{RACHitsI: racI, RACHitsD: racD}
	copy(t.I[:], i)
	copy(t.D[:], dd)
	copy(t.Upgrades[:], up)
	*m = t
	return nil
}

// SaveState writes one run result (checkpoints persist completed segments
// so a resumed run reproduces them byte-identically).
// Floats round-trip exactly through their IEEE bit patterns (F64).
func (r *RunResult) SaveState(e *snapshot.Encoder) {
	e.String(r.Name)
	e.U64(r.Txns)
	r.Breakdown.SaveState(e)
	r.Miss.SaveState(e)
	e.U64(r.Invalidations)
	e.U64(r.Writebacks)
	e.U64(r.Stores)
	e.U64(r.WriteInvalOps)
	e.U64(r.RACProbes)
	e.U64(r.RACHits)
	e.F64(r.L1IMissRate)
	e.F64(r.L1DMissRate)
	e.U64(r.L1IAccesses)
	e.U64(r.L1IMisses)
	e.U64(r.L1DAccesses)
	e.U64(r.L1DMisses)
	e.U64(r.L2Accesses)
	e.F64(r.KernelFraction)
	e.F64(r.Utilization)
	e.U64(r.IdleCycles)
}

// LoadState restores one run result.
func (r *RunResult) LoadState(d *snapshot.Decoder) error {
	var t RunResult
	t.Name = d.String()
	t.Txns = d.U64()
	t.Breakdown.LoadState(d)
	if err := t.Miss.LoadState(d); err != nil {
		return err
	}
	t.Invalidations = d.U64()
	t.Writebacks = d.U64()
	t.Stores = d.U64()
	t.WriteInvalOps = d.U64()
	t.RACProbes = d.U64()
	t.RACHits = d.U64()
	t.L1IMissRate = d.F64()
	t.L1DMissRate = d.F64()
	t.L1IAccesses = d.U64()
	t.L1IMisses = d.U64()
	t.L1DAccesses = d.U64()
	t.L1DMisses = d.U64()
	t.L2Accesses = d.U64()
	t.KernelFraction = d.F64()
	t.Utilization = d.F64()
	t.IdleCycles = d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	*r = t
	return nil
}
