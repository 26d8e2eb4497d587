package noc

import (
	"fmt"

	"oltpsim/internal/snapshot"
)

// SaveState writes the link reservation horizon.
func (n *Network) SaveState(e *snapshot.Encoder) {
	e.U64s(n.linkBusy)
}

// LoadState restores a network of identical topology.
func (n *Network) LoadState(d *snapshot.Decoder) error {
	busy := d.U64s()
	if err := d.Err(); err != nil {
		return err
	}
	if len(busy) != len(n.linkBusy) {
		return fmt.Errorf("noc: snapshot has %d links, want %d", len(busy), len(n.linkBusy))
	}
	copy(n.linkBusy, busy)
	return nil
}
