// Package noc models link occupancy in the interconnect of the
// multiprocessor: a 2D torus like the one the Alpha 21364 forms by tiling
// processors (paper Figure 1B), routed in dimension order, where a message
// that finds a link on its path still busy waits for it.
//
// The paper's Figure 3 latencies are end-to-end and already include the
// network, so this layer runs only behind core.Config.Contention: it adds
// link-queuing delay on top of the base latency, and the ablation
// benchmarks use it to expose the bandwidth effects the fixed numbers hide.
package noc

import "fmt"

// The link timing: a message advances one hop every HopCycles (router plus
// link flight) and occupies each link it crosses for LinkBusyCycles
// (serialization at >4 GB/s per paper Section 2.3: a 64-byte line plus
// header in ~16 ns).
const (
	HopCycles      = 25
	LinkBusyCycles = 16
)

// dims picks a near-square factorization.
func dims(nodes int) (int, int) {
	bestW, bestH := nodes, 1
	for w := 1; w*w <= nodes; w++ {
		if nodes%w == 0 {
			bestW, bestH = nodes/w, w
		}
	}
	return bestW, bestH
}

// Network is the torus with per-link occupancy. Links are indexed by
// (node, direction); four directions per node.
type Network struct {
	width, height int
	linkBusy      []uint64 // [node*4 + dir]
}

const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// New builds the network for nodes nodes on the near-square torus dims
// picks (4x2 for the paper's 8).
func New(nodes int) *Network {
	w, h := dims(nodes)
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("noc: bad torus %dx%d", w, h))
	}
	return &Network{width: w, height: h, linkBusy: make([]uint64, w*h*4)}
}

func (n *Network) coords(node int) (x, y int) {
	return node % n.width, node / n.width
}

// torusDelta returns the signed shortest displacement from a to b on a ring
// of size m.
func torusDelta(a, b, m int) int {
	d := (b - a) % m
	if d < 0 {
		d += m
	}
	if d > m/2 {
		d -= m
	}
	return d
}

// Send routes one message from a to b at time at, reserving each link along
// the dimension-order path, and returns the cycles it spent queued behind
// busy links.
func (n *Network) Send(a, b int, at uint64) (queued uint32) {
	ax, ay := n.coords(a)
	bx, by := n.coords(b)
	dx := torusDelta(ax, bx, n.width)
	dy := torusDelta(ay, by, n.height)

	t := at
	x, y := ax, ay
	step := func(node, dir, nx, ny int) {
		li := node*4 + dir
		if n.linkBusy[li] > t {
			queued += uint32(n.linkBusy[li] - t)
			t = n.linkBusy[li]
		}
		n.linkBusy[li] = t + LinkBusyCycles
		t += HopCycles
		x, y = nx, ny
	}
	for dx != 0 {
		if dx > 0 {
			step(y*n.width+x, dirEast, (x+1)%n.width, y)
			dx--
		} else {
			step(y*n.width+x, dirWest, (x-1+n.width)%n.width, y)
			dx++
		}
	}
	for dy != 0 {
		if dy > 0 {
			step(y*n.width+x, dirSouth, x, (y+1)%n.height)
			dy--
		} else {
			step(y*n.width+x, dirNorth, x, (y-1+n.height)%n.height)
			dy++
		}
	}
	return queued
}
