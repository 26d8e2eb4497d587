package mem

import (
	"fmt"

	"oltpsim/internal/snapshot"
)

// SaveState writes the bank reservation horizon.
func (c *Controller) SaveState(e *snapshot.Encoder) {
	e.U64s(c.bankBusy)
}

// LoadState restores the bank reservation horizon.
func (c *Controller) LoadState(d *snapshot.Decoder) error {
	busy := d.U64s()
	if err := d.Err(); err != nil {
		return err
	}
	if len(busy) != len(c.bankBusy) {
		return fmt.Errorf("mem: snapshot has %d banks, want %d", len(busy), len(c.bankBusy))
	}
	copy(c.bankBusy, busy)
	return nil
}
