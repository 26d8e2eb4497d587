package cpu

import "oltpsim/internal/memref"

// The paper's out-of-order core (Section 7): a 64-entry instruction window
// and 2 load/store units. Its issue width of 4 is folded into
// OOOConfig.EffectiveWidth.
const (
	// Window is the instruction window size.
	Window = 64
	// MemPorts is the number of load/store units. Memory operations take
	// them round-robin, each holding its unit for 1/MemPorts of a cycle.
	MemPorts = 2
)

// OOOConfig holds the out-of-order model's two calibrated rates.
type OOOConfig struct {
	// EffectiveWidth is the sustained non-stalled issue rate on OLTP code;
	// it folds in the fetch and branch-prediction losses the abstract
	// reference stream does not model. The paper observes that OLTP has
	// limited ILP and a 4-wide OOO core gains only ~1.4x over single issue.
	EffectiveWidth float64
	// ChainFraction is the probability that a load participates in a
	// dependence chain beyond the explicitly-marked pointer walks: OLTP
	// integer code feeds almost every load into address computation,
	// branches, or a following store, so most load latency cannot leave the
	// critical path. Applied deterministically by sequence hash.
	ChainFraction float64
}

// OOO is the multiple-issue out-of-order processor model (paper Section 7).
// It is an event-driven window model rather than a cycle-accurate core:
//
//   - Non-memory instructions retire at EffectiveWidth per cycle.
//   - A memory operation at instruction sequence s may not issue before
//     instruction s-Window has retired (the ROB gate). Independent misses
//     that fall inside one window overlap — real memory-level parallelism —
//     while misses more than a window apart serialize.
//   - A load marked DepPrev (address generation depends on the previous
//     memory access: index chains, hash buckets, linked cursors) cannot
//     issue before that access completes. OLTP's pointer-chased metadata
//     makes such chains pervasive, which is why the paper finds the large
//     memory stall "extremely difficult to hide".
//   - The memory system is sequentially consistent and the model does not
//     speculate past stores: a store issues at the retire frontier and its
//     latency is fully exposed (consistent with Ranganathan et al. [16]).
//   - Load/store units bound memory issue bandwidth.
//
// Retire is in order, so the clock is the retire frontier and every gap is
// attributed to the stalling reference's category, mirroring head-of-ROB
// stall accounting.
type OOO struct {
	cfg OOOConfig

	seq             uint64  // instruction sequence count
	now             float64 // retire frontier
	lastMemComplete float64
	ports           [MemPorts]float64
	nextPort        int

	// gates is a ring of (seq, retire-time) checkpoints used to find the
	// retire time of instruction seq-Window.
	gates []gate
	gHead int
	gLen  int

	b    Breakdown
	frac [8]float64 // fractional carries per bucket to keep integer sums exact
}

type gate struct {
	seq uint64
	t   float64
}

// iFetchExposure is the fraction of an instruction-fetch miss that the
// window drain cannot cover.
const iFetchExposure = 0.72

const (
	fracBusy = iota
	fracL2
	fracLocal
	fracRemote
	fracDirty
	fracKernel
)

// NewOOO builds the model; zero-valued fields of cfg take the paper's
// calibrated defaults (effective width 1.6, chain fraction 0.85). This is
// the one definition of the paper's OOO core: core.Config.OutOfOrder builds
// NewOOO(OOOConfig{}).
func NewOOO(cfg OOOConfig) *OOO {
	if cfg.EffectiveWidth == 0 {
		cfg.EffectiveWidth = 1.6
	}
	if cfg.ChainFraction == 0 {
		cfg.ChainFraction = 0.85
	}
	return &OOO{
		cfg:   cfg,
		gates: make([]gate, 256),
	}
}

// pushGate records that instruction seq retired at time t.
func (m *OOO) pushGate(s uint64, t float64) {
	if m.gLen == len(m.gates) {
		// Grow the ring (rare; bounded by Window/min-group-size in steady
		// state because old gates are pruned).
		ng := make([]gate, 2*len(m.gates))
		for i := 0; i < m.gLen; i++ {
			ng[i] = m.gates[(m.gHead+i)%len(m.gates)]
		}
		m.gates = ng
		m.gHead = 0
	}
	m.gates[(m.gHead+m.gLen)%len(m.gates)] = gate{seq: s, t: t}
	m.gLen++
}

// gateTime returns the retire time of the newest checkpoint at or below
// target, pruning older ones. Instructions before the first checkpoint
// retired at time <= the first checkpoint's time; returning 0 for them is
// safe (no constraint).
func (m *OOO) gateTime(target uint64) float64 {
	best := 0.0
	for m.gLen > 0 {
		g := m.gates[m.gHead]
		if g.seq > target {
			break
		}
		best = g.t
		m.gHead = (m.gHead + 1) % len(m.gates)
		m.gLen--
	}
	// Re-push the found checkpoint so later, smaller windows still see it.
	if best > 0 {
		m.gHead = (m.gHead - 1 + len(m.gates)) % len(m.gates)
		m.gates[m.gHead] = gate{seq: target, t: best}
		m.gLen++
	}
	return best
}

// Account implements Model.
func (m *OOO) Account(r memref.Ref, lat uint32, cat StallCat) {
	if r.Kind() == memref.IFetch {
		n := float64(r.Instrs())
		m.seq += uint64(r.Instrs())
		m.now += n / m.cfg.EffectiveWidth
		m.b.Instructions += uint64(r.Instrs())
		m.chargeF(fracBusy, n/m.cfg.EffectiveWidth, r.Kernel())
		if lat > 0 {
			// Instruction fetch is in-order: an L1I miss stalls the
			// frontend while the backend drains the window. The drainable
			// work scales with the outstanding miss, so the covered portion
			// is proportional to the miss latency rather than a fixed
			// credit — which is also why the paper finds the *relative*
			// integration gains identical for in-order and out-of-order
			// processors.
			if exposed := float64(lat) * iFetchExposure; exposed > 0 {
				m.now += exposed
				m.chargeCatF(cat, exposed, r.Kernel())
			}
		}
		m.pushGate(m.seq, m.now)
		return
	}

	// The ROB gate: this operation occupies an ROB slot, so instruction
	// seq-Window must have retired before it can even be in flight.
	issue := m.gateTime(sub(m.seq, Window))
	chained := r.DepPrev()
	if !chained && r.Kind() == memref.Load {
		// Deterministic pseudo-random chain marking by sequence hash.
		h := (m.seq * 0x9e3779b97f4a7c15) >> 40
		chained = float64(h&0xffff)/65536.0 < m.cfg.ChainFraction
	}
	if chained && m.lastMemComplete > issue {
		issue = m.lastMemComplete
	}
	if p := m.ports[m.nextPort]; p > issue {
		issue = p
	}
	if r.Kind() == memref.Store {
		// Sequential consistency without store speculation: the store's
		// memory transaction begins at the retire frontier.
		issue = m.now
	}
	m.ports[m.nextPort] = issue + 1.0/MemPorts
	m.nextPort = (m.nextPort + 1) % MemPorts

	eff := float64(lat)
	if lat == 0 {
		eff = 1 // L1 hit load-to-use
	}
	complete := issue + eff
	m.lastMemComplete = complete

	if complete > m.now {
		stall := complete - m.now
		m.now = complete
		if lat > 0 {
			m.chargeCatF(cat, stall, r.Kernel())
		} else {
			m.chargeF(fracBusy, stall, r.Kernel())
		}
	}
	m.pushGate(m.seq, m.now)
}

func sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Now implements Model.
func (m *OOO) Now() uint64 { return uint64(m.now) }

// AdvanceTo implements Model.
func (m *OOO) AdvanceTo(t uint64) {
	if ft := float64(t); ft > m.now {
		m.b.Idle += uint64(ft - m.now)
		m.now = ft
	}
}

// Breakdown implements Model.
func (m *OOO) Breakdown() *Breakdown { return &m.b }

// ResetStats implements Model.
func (m *OOO) ResetStats() {
	m.b = Breakdown{}
	m.frac = [8]float64{}
}

func (m *OOO) chargeCatF(cat StallCat, cycles float64, kernel bool) {
	switch cat {
	case CatL2Hit:
		m.addF(fracL2, &m.b.L2Hit, cycles)
	case CatLocal:
		m.addF(fracLocal, &m.b.Local, cycles)
	case CatRemote:
		m.addF(fracRemote, &m.b.Remote, cycles)
	case CatRemoteDirty:
		m.addF(fracDirty, &m.b.RemoteDirty, cycles)
	default:
		m.addF(fracBusy, &m.b.Busy, cycles)
	}
	if kernel {
		m.addF(fracKernel, &m.b.Kernel, cycles)
	}
}

func (m *OOO) chargeF(bucket int, cycles float64, kernel bool) {
	m.addF(bucket, &m.b.Busy, cycles)
	if kernel {
		m.addF(fracKernel, &m.b.Kernel, cycles)
	}
}

// addF accumulates a fractional cycle count into an integer bucket, carrying
// the remainder so long runs do not drift.
func (m *OOO) addF(bucket int, dst *uint64, cycles float64) {
	m.frac[bucket] += cycles
	whole := uint64(m.frac[bucket])
	m.frac[bucket] -= float64(whole)
	*dst += whole
}
