// Package mem models bank occupancy in each node's memory controller: a
// direct-Rambus-style banked memory (paper Section 2.3 assumes RDRAM
// reached over few pins) where an access that finds its bank still busy
// waits for it.
//
// The end-to-end latencies of Figure 3 already include the controller, so
// this layer runs only behind core.Config.Contention: it adds bank-conflict
// delay on top of the base latency, and the ablation benchmarks use it to
// show how much headroom the fixed-latency assumption hides. The directory
// storage cost of separating the coherence and memory controllers lives in
// core.CrossingModel, not here.
package mem

import "oltpsim/internal/memref"

// The controller's geometry: 16 independent RDRAM banks, each occupied 40
// cycles by one access.
const (
	Banks          = 16
	BankBusyCycles = 40
)

// Controller is one node's memory controller.
type Controller struct {
	bankBusy []uint64
}

// NewController builds a controller with every bank free.
func NewController() *Controller {
	return &Controller{bankBusy: make([]uint64, Banks)}
}

// Access reserves the bank for line at time at and returns the queuing delay
// beyond the base latency (0 when the bank is free).
func (c *Controller) Access(line uint64, at uint64) uint32 {
	bank := (line >> memref.LineShift) % Banks
	delay := uint32(0)
	if c.bankBusy[bank] > at {
		delay = uint32(c.bankBusy[bank] - at)
		at = c.bankBusy[bank]
	}
	c.bankBusy[bank] = at + BankBusyCycles
	return delay
}
