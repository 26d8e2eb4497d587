package sim

import "oltpsim/internal/snapshot"

// SaveState writes the generator position. The whole stream is a pure
// function of this one word, so restoring it resumes the exact sequence.
func (r *RNG) SaveState(e *snapshot.Encoder) { e.U64(r.state) }

// LoadState restores the generator position.
func (r *RNG) LoadState(d *snapshot.Decoder) { r.state = d.U64() }

// Zipf carries no snapshot state: its constants are pure functions of
// (n, theta) and are rebuilt bit-identically by construction.
