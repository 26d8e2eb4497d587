package oltp

import (
	"fmt"

	"oltpsim/internal/kernel"
	"oltpsim/internal/memref"
	"oltpsim/internal/sim"
	"oltpsim/internal/tpcb"
)

// codeArenaBase is where instruction regions live; with replication the
// arena is duplicated per node at arenaBase + node*codeArenaSize.
const (
	codeArenaBase = uint64(64) << 20
	codeArenaSize = uint64(16) << 20
	sharedBase    = uint64(4) << 30 // shared (SGA/kernel-shared) regions
	privateBase   = uint64(64) << 30
)

// spaceAlloc implements tpcb.Allocator on top of the kernel address space.
type spaceAlloc struct {
	as       *kernel.AddressSpace
	codeNext uint64
	shrNext  uint64
	prvNext  uint64
}

func pageAlign(v uint64) uint64 {
	const p = memref.PageBytes
	return (v + p - 1) &^ uint64(p-1)
}

// Alloc implements tpcb.Allocator. Code goes into the (possibly replicated)
// arena; everything else becomes a round-robin-placed shared region.
func (a *spaceAlloc) Alloc(name string, size uint64, kind tpcb.RegionKind) uint64 {
	switch kind {
	case tpcb.KindCode:
		a.codeNext = pageAlign(a.codeNext)
		base := a.codeNext
		a.codeNext += size
		if a.codeNext > codeArenaBase+codeArenaSize {
			panic(fmt.Sprintf("oltp: code arena overflow allocating %s", name))
		}
		return base
	default:
		a.shrNext = pageAlign(a.shrNext)
		base := a.shrNext
		a.shrNext += size
		a.as.AddRegion(kernel.Region{
			Name: name, Base: base, Size: pageAlign(size),
			Placement: kernel.RoundRobinPages,
		})
		return base
	}
}

// allocPrivate carves a node-local region (PGA, stacks, per-CPU kernel
// structures).
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

// Harness is the assembled workload: it implements core.Workload.
type Harness struct {
	p     Params
	chips int
	as    *kernel.AddressSpace
	sched *kernel.Scheduler
	em    *Emitter
	eng   *tpcb.Engine
	kc    *kernelCode

	servers []*serverGen
	lgwr    *lgwrGen
	dbwr    *dbwrGen
	scn     *scenarioCtl // nil = steady state

	committed uint64

	// per-CPU kernel scheduler data lines (runqueue, per-CPU area)
	schedData []uint64
	// shared semaphore region: one line per server
	semBase uint64
}

// NewHarness builds the workload: database engine (prewarmed to steady
// state), address space, processes, and daemons.
func NewHarness(p Params) (*Harness, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	h := &Harness{p: p, chips: p.CPUs / p.CoresPerChip}
	h.as = kernel.NewAddressSpace(h.chips)
	alloc := &spaceAlloc{
		as:       h.as,
		codeNext: codeArenaBase,
		shrNext:  sharedBase,
		prvNext:  privateBase,
	}

	// Register the code arena itself: one copy striped across nodes, or one
	// node-local copy per node when replication is on.
	if p.CodeReplication {
		for n := 0; n < h.chips; n++ {
			h.as.AddRegion(kernel.Region{
				Name: fmt.Sprintf("text.replica%d", n),
				Base: codeArenaBase + uint64(n)*codeArenaSize, Size: codeArenaSize,
				Placement: kernel.NodeLocal, Node: n,
			})
		}
	} else {
		h.as.AddRegion(kernel.Region{
			Name: "text", Base: codeArenaBase, Size: codeArenaSize,
			Placement: kernel.RoundRobinPages,
		})
	}

	h.em = &Emitter{
		replicate: p.CodeReplication,
		arenaBase: codeArenaBase,
		arenaSize: codeArenaSize,
	}
	h.kc = newKernelCode(alloc)

	rng := sim.NewRNG(p.Seed)
	eng, err := tpcb.NewEngine(p.TPCB, alloc, h.em, rng.Uint64())
	if err != nil {
		return nil, err
	}
	h.eng = eng
	h.eng.Prewarm()

	if p.Scenario != nil {
		h.scn = newScenarioCtl(p.Scenario, p.ScenarioBase, &p.TPCB)
	}

	// Shared semaphore lines (server <-> log writer communication).
	totalServers := p.CPUs * ServersPerCPU
	h.semBase = alloc.Alloc("kern.semaphores", uint64(totalServers)*memref.LineBytes, tpcb.KindShared)

	// Per-CPU kernel scheduler data.
	h.schedData = make([]uint64, p.CPUs)
	for c := 0; c < p.CPUs; c++ {
		h.schedData[c] = alloc.allocPrivate(fmt.Sprintf("kern.percpu%d", c), memref.PageBytes, h.chipOf(c))
	}

	h.sched = kernel.NewScheduler(p.CPUs, SchedQuantum, h.emitContextSwitch)

	// Daemons first (spawned before servers, like a real instance): the log
	// writer on CPU 0, the database writer on the last CPU.
	h.lgwr = &lgwrGen{h: h}
	h.lgwr.proc = h.sched.Spawn(0, "lgwr", h.lgwr)
	h.dbwr = &dbwrGen{h: h}
	h.dbwr.proc = h.sched.Spawn(p.CPUs-1, "dbwr", h.dbwr)

	// Dedicated servers, ServersPerCPU per processor.
	for c := 0; c < p.CPUs; c++ {
		for i := 0; i < ServersPerCPU; i++ {
			id := c*ServersPerCPU + i
			pga := alloc.allocPrivate(fmt.Sprintf("pga.s%d", id), tpcb.PGABytes, h.chipOf(c))
			pipe := alloc.allocPrivate(fmt.Sprintf("pipe.s%d", id), 4*memref.PageBytes, h.chipOf(c))
			g := &serverGen{
				h:    h,
				id:   id,
				rng:  rng.Fork(),
				sess: h.eng.NewSession(id, pga),
				pipe: pipe,
				sem:  h.semBase + uint64(id)*memref.LineBytes,
			}
			g.proc = h.sched.Spawn(c, fmt.Sprintf("server%d", id), g)
			h.servers = append(h.servers, g)
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

// Next implements core.Workload by delegating to the scheduler.
func (h *Harness) Next(cpu int, now uint64) (memref.Ref, kernel.Status, uint64) {
	return h.sched.Next(cpu, now)
}

// RefSource implements core.RefSource: Next above is a pure delegation, so
// the timing loop may call the scheduler directly.
func (h *Harness) RefSource() *kernel.Scheduler { return h.sched }

// HomeOf implements core.Workload.
func (h *Harness) HomeOf(line uint64) int { return h.as.HomeOf(line) }

// Committed implements core.Workload.
func (h *Harness) Committed() uint64 { return h.committed }

// CommitCounter implements core.CommitSource: the timing loop tests the
// commit boundary after every reference, and this pointer makes that test a
// single load.
func (h *Harness) CommitCounter() *uint64 { return &h.committed }

// Engine exposes the database engine (invariant checks in tests).
func (h *Harness) Engine() *tpcb.Engine { return h.eng }

// Scheduler exposes the process scheduler (diagnostics).
func (h *Harness) Scheduler() *kernel.Scheduler { return h.sched }

// AddressSpace exposes the region table (reporting).
func (h *Harness) AddressSpace() *kernel.AddressSpace { return h.as }

// chipOf maps a CPU index to its chip (NUMA node).
func (h *Harness) chipOf(cpu int) int { return cpu / h.p.CoresPerChip }

// emitContextSwitch is the scheduler's switch-overhead hook: the kernel
// context-switch path plus the CPU's run-queue and per-CPU data.
func (h *Harness) emitContextSwitch(cpu int, out *kernel.RefBuffer) {
	h.em.SetOutput(out, h.chipOf(cpu))
	h.em.SetKernel(true)
	h.em.Code(h.kc.ctxSwitch)
	base := h.schedData[cpu]
	h.em.Load(base, false)
	h.em.Store(base, false)
	h.em.Load(base+2*memref.LineBytes, false)
	h.em.SetKernel(false)
}
