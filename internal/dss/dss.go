// Package dss implements the contrast workload the paper uses to motivate
// its focus on OLTP: decision support (DSS). The paper's introduction notes
// that "applications such as decision support (DSS) and Web index search
// have been shown to be relatively insensitive to memory system
// performance [1]" — OLTP is the hard case. This package makes that
// contrast measurable inside the same simulator: sequential scan queries
// over the account table of the same TPC-B database, with a small, tight
// instruction loop, no inter-processor write sharing, and streaming data
// references that no realistic L2 can capture.
//
// The expected (and measured — see BenchmarkExtensionDSS) behaviour:
//
//   - L2 size and associativity barely matter (the scan footprint streams);
//   - there are essentially no 3-hop misses (read-only data is never dirty
//     in another cache);
//   - chip-level integration helps far less than for OLTP, because the only
//     lever is the modest 2-hop latency reduction.
package dss

import (
	"fmt"

	"oltpsim/internal/kernel"
	"oltpsim/internal/memref"
	"oltpsim/internal/sim"
	"oltpsim/internal/tpcb"
)

// Params configures the DSS workload.
type Params struct {
	// CPUs is the number of cores.
	CPUs int
	// CoresPerChip groups cores onto chips (as in the OLTP harness).
	CoresPerChip int
	// ScannersPerCPU is the query parallelism per processor; scans are
	// CPU-light, so 1-2 suffice.
	ScannersPerCPU int
	// Seed drives row sampling.
	Seed uint64
	// TPCB sizes the database being scanned.
	TPCB tpcb.Config
	// RowLinesPerBlock is how many row lines a scan touches per 8 KB block
	// (predicate evaluation reads a sample of the rows' lines).
	RowLinesPerBlock int
	// BlocksPerUnit is the scan length counted as one unit of work (the
	// "transaction" equivalent for the Run protocol).
	BlocksPerUnit int
	// SchedQuantum is the scheduler time slice in references.
	SchedQuantum int
}

// DefaultParams returns a paper-scale scan workload.
func DefaultParams(cpus int) Params {
	return Params{
		CPUs:             cpus,
		ScannersPerCPU:   2,
		Seed:             0xd55_0217,
		TPCB:             tpcb.DefaultConfig(),
		RowLinesPerBlock: 16,
		BlocksPerUnit:    32,
		SchedQuantum:     40_000,
	}
}

// TestParams returns a scaled-down variant. The scanned table must still
// exceed every cache under study (64 MB, with scanner partitions 32 MB apart, vs. at most 8 MB of L2), or the
// workload stops streaming and the DSS insensitivity result degenerates.
func TestParams(cpus int) Params {
	p := DefaultParams(cpus)
	p.TPCB = tpcb.SmallConfig()
	p.TPCB.AccountsPerBranch = 160_000
	p.TPCB.BufferFrames = p.TPCB.TotalBlocks() + 256
	p.BlocksPerUnit = 8
	return p
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.CPUs <= 0 || p.ScannersPerCPU <= 0 || p.RowLinesPerBlock <= 0 || p.BlocksPerUnit <= 0 {
		return fmt.Errorf("dss: non-positive parameter")
	}
	if p.CoresPerChip < 0 || (p.CoresPerChip > 1 && p.CPUs%p.CoresPerChip != 0) {
		return fmt.Errorf("dss: %d CPUs do not divide into chips of %d", p.CPUs, p.CoresPerChip)
	}
	return p.TPCB.Validate()
}

// spaceAlloc is the DSS harness's address-space builder (shared regions
// round-robin, private regions node-local), mirroring the OLTP layout.
type spaceAlloc struct {
	as      *kernel.AddressSpace
	next    uint64
	prvNext uint64
}

func pageAlign(v uint64) uint64 {
	const p = memref.PageBytes
	return (v + p - 1) &^ uint64(p-1)
}

// Alloc implements tpcb.Allocator.
func (a *spaceAlloc) Alloc(name string, size uint64, kind tpcb.RegionKind) uint64 {
	a.next = pageAlign(a.next)
	base := a.next
	a.next += pageAlign(size)
	a.as.AddRegion(kernel.Region{
		Name: name, Base: base, Size: pageAlign(size),
		Placement: kernel.RoundRobinPages, Code: kind == tpcb.KindCode,
	})
	return base
}

func (a *spaceAlloc) allocPrivate(name string, size uint64, node int) uint64 {
	a.prvNext = pageAlign(a.prvNext)
	base := a.prvNext
	a.prvNext += pageAlign(size)
	a.as.AddRegion(kernel.Region{
		Name: name, Base: base, Size: pageAlign(size),
		Placement: kernel.NodeLocal, Node: node,
	})
	return base
}

// Harness implements core.Workload for scan queries.
type Harness struct {
	p     Params
	chips int
	as    *kernel.AddressSpace
	sched *kernel.Scheduler
	eng   *tpcb.Engine

	units    uint64
	scanCode *tpcb.CodeFn
	aggCode  *tpcb.CodeFn
}

// NewHarness builds the scan workload over a prewarmed database.
func NewHarness(p Params) (*Harness, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cores := p.CoresPerChip
	if cores == 0 {
		cores = 1
	}
	h := &Harness{p: p, chips: p.CPUs / cores}
	h.as = kernel.NewAddressSpace(h.chips)
	alloc := &spaceAlloc{as: h.as, next: 64 << 20, prvNext: 64 << 30}

	// The scan kernel is a small, tight loop — the opposite of OLTP's
	// sprawling code footprint — so it lives in the L1 I-cache.
	mkFn := func(name string, sizeKB, path int) *tpcb.CodeFn {
		size := uint64(sizeKB) << 10
		base := alloc.Alloc("dsscode."+name, size, tpcb.KindCode)
		return &tpcb.CodeFn{Name: name, Base: base, SizeLines: int(size / memref.LineBytes),
			PathInstrs: path, Loopy: true, Stride: 0}
	}
	h.scanCode = mkFn("scan_loop", 8, 220)
	h.aggCode = mkFn("aggregate", 4, 60)

	// The engine allocates the SGA (including the block buffer the scans
	// read) through the same allocator; the emitter is installed per
	// segment by the scanners.
	em := &segEmitter{}
	eng, err := tpcb.NewEngine(p.TPCB, alloc, em, p.Seed)
	if err != nil {
		return nil, err
	}
	h.eng = eng
	h.eng.Prewarm()

	h.sched = kernel.NewScheduler(p.CPUs, p.SchedQuantum, nil)
	rng := sim.NewRNG(p.Seed)
	total := p.CPUs * p.ScannersPerCPU
	for c := 0; c < p.CPUs; c++ {
		for i := 0; i < p.ScannersPerCPU; i++ {
			id := c*p.ScannersPerCPU + i
			g := &scannerGen{
				h:   h,
				em:  em,
				rng: rng.Fork(),
				pga: alloc.allocPrivate(fmt.Sprintf("dss.pga%d", id), memref.PageBytes, c/cores),
				// Partition the table: scanner k starts at offset k/total.
				cursor: id * h.accountBlocks() / total,
			}
			h.sched.Spawn(c, fmt.Sprintf("scanner%d", id), g)
		}
	}
	return h, nil
}

// MustNewHarness panics on parameter errors.
func MustNewHarness(p Params) *Harness {
	h, err := NewHarness(p)
	if err != nil {
		panic(err)
	}
	return h
}

func (h *Harness) accountBlocks() int { return h.p.TPCB.AccountBlocks() }

// accountBlockNo maps a scan cursor to the engine's block numbering
// (accounts follow branches and tellers).
func (h *Harness) accountBlockNo(cursor int) int32 {
	base := h.p.TPCB.BranchBlocks() + h.p.TPCB.TellerBlocks()
	return int32(base + cursor%h.accountBlocks())
}

// Next implements core.Workload.
func (h *Harness) Next(cpu int, now uint64) (memref.Ref, kernel.Status, uint64) {
	return h.sched.Next(cpu, now)
}

// HomeOf implements core.Workload.
func (h *Harness) HomeOf(line uint64) int { return h.as.HomeOf(line) }

// Committed implements core.Workload: one "commit" per scanned unit.
func (h *Harness) Committed() uint64 { return h.units }

// Engine exposes the scanned database.
func (h *Harness) Engine() *tpcb.Engine { return h.eng }

// segEmitter collects the engine's emissions into the current segment
// buffer (the DSS path emits directly, so this only needs to forward).
type segEmitter struct {
	out *kernel.RefBuffer
}

func (e *segEmitter) Code(fn *tpcb.CodeFn) {
	fn.Lines(func(addr uint64, instrs int) {
		e.out.Append(memref.New(addr, memref.IFetch, false, false, instrs))
	})
}

func (e *segEmitter) Load(addr uint64, dep bool) {
	e.out.Append(memref.New(addr, memref.Load, false, dep, 0))
}

func (e *segEmitter) Store(addr uint64, dep bool) {
	e.out.Append(memref.New(addr, memref.Store, false, false, 0))
}

// scannerGen is one scan query worker: it walks its partition of the
// account table, touching a sample of row lines per block and aggregating
// into private memory.
type scannerGen struct {
	h      *Harness
	em     *segEmitter
	rng    *sim.RNG
	pga    uint64
	cursor int
}

// NextSegment implements kernel.Generator: one unit of BlocksPerUnit blocks.
func (g *scannerGen) NextSegment(now uint64, out *kernel.RefBuffer) kernel.Directive {
	g.em.out = out
	pool := g.h.eng.Pool()
	lines := 8192 / memref.LineBytes // lines per block
	for b := 0; b < g.h.p.BlocksPerUnit; b++ {
		block := g.h.accountBlockNo(g.cursor)
		g.cursor++
		g.em.Code(g.h.scanCode)
		// Block header, then a strided sample of the row lines.
		g.em.Load(pool.BlockAddr(block, 0), false)
		stride := lines / g.h.p.RowLinesPerBlock
		if stride == 0 {
			stride = 1
		}
		for l := 1; l < lines; l += stride {
			g.em.Load(pool.BlockAddr(block, l*memref.LineBytes), false)
		}
		// Aggregate into the private PGA.
		g.em.Code(g.h.aggCode)
		g.em.Store(g.pga+uint64(g.cursor%8)*memref.LineBytes, false)
	}
	return kernel.Directive{
		Kind: kernel.Run,
		OnDrain: func(uint64) {
			g.h.units++
		},
	}
}
