package rac

import "oltpsim/internal/snapshot"

// SaveState writes the backing tag store and the RAC counters.
func (r *RAC) SaveState(e *snapshot.Encoder) {
	r.c.SaveState(e)
	e.U64(r.Stats.Probes)
	e.U64(r.Stats.Hits)
}

// LoadState restores a RAC of identical geometry.
func (r *RAC) LoadState(d *snapshot.Decoder) error {
	if err := r.c.LoadState(d); err != nil {
		return err
	}
	stats := Stats{Probes: d.U64(), Hits: d.U64()}
	if err := d.Err(); err != nil {
		return err
	}
	r.Stats = stats
	return nil
}
