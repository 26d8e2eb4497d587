package core

import (
	"fmt"

	"oltpsim/internal/cache"
	"oltpsim/internal/coherence"
	"oltpsim/internal/cpu"
	"oltpsim/internal/kernel"
	"oltpsim/internal/memref"
	"oltpsim/internal/rac"
	"oltpsim/internal/stats"
)

// Workload is what the system times: a per-CPU reference source (the OLTP
// harness with its scheduler) plus the page-placement and progress
// information the memory system needs.
type Workload interface {
	// Next hands cpu, at local time now, its next run of references, or
	// tells it to idle until wake or that it is done; see kernel.Status
	// and kernel.Scheduler.Next for the contract. A StatusRef run holds
	// at least one reference and must stay unchanged until the same CPU's
	// next call, which Step makes only once it has timed the whole run.
	Next(cpu int, now uint64) (run []memref.Ref, st kernel.Status, wake uint64)
	// HomeOf maps a line address to its home node (chip).
	HomeOf(line uint64) int
	// Committed returns the global count of committed transactions.
	Committed() uint64
}

// CommitSource is an optional fast path a Workload may implement alongside
// Committed: direct access to the committed-transaction counter. RunUntil
// stops exactly at the commit boundary, which means testing the counter
// after every single step; through this interface that test is one pointer
// load instead of an interface dispatch per reference. The counter must be
// the same value Committed returns.
type CommitSource interface {
	CommitCounter() *uint64
}

// coreCtx is one processor core: private L1s and a timing model. With
// CoresPerChip == 1 (every paper configuration) a chip has exactly one.
type coreCtx struct {
	cpuID int
	l1i   *cache.Cache
	l1d   *cache.Cache
	model cpu.Model
	// inorder is the devirtualized model when the configuration uses the
	// in-order processor (every configuration except the Figure 13 OOO
	// bars): Step issues direct calls through it instead of dispatching
	// through the Model interface on every reference.
	inorder *cpu.InOrder
	// chip is the node this core belongs to, so the flattened Step scan can
	// recover it without a parallel slice lookup.
	chip *node
	// run is what is left of the run the workload last handed this core:
	// Step times it one reference per step and asks for the next run only
	// once it is empty.
	run []memref.Ref
}

// node is one processor chip: cores sharing an L2 (and victim buffer/RAC),
// which is also the unit of directory sharing. Multiple cores per chip is
// the CMP extension the paper's conclusion points to ("the next logical
// step seems to be to tolerate the remaining latencies by exploiting the
// inherent thread-level parallelism in OLTP through techniques such as chip
// multiprocessing").
type node struct {
	id    int
	cores []*coreCtx
	l2    *cache.Cache
	vb    *cache.VictimBuffer
	rc    *rac.RAC
	miss  stats.MissTable

	stores uint64
}

// System is the assembled machine: chips with cache hierarchies, a
// directory protocol, and the latency model implied by the integration
// level.
type System struct {
	cfg Config
	lat LatencyTable
	w   Workload
	// commits is the workload's committed-transaction counter when it
	// implements CommitSource, letting RunUntil test its stop condition with
	// a plain load per step; nil means fall back to w.Committed().
	commits *uint64
	chips   int
	cores   int // per chip

	// fingerprint is cfg.Fingerprint(), computed once: a snapshot writes it
	// and a load checks it, and formatting it on every checkpoint would put
	// fmt's garbage-collector-dependent buffer pool on the write path.
	fingerprint string

	nodes []*node
	// allCores flattens nodes[i].cores[j] in CPU-ID order, so a core's
	// index here is its CPU ID and its key's low bits in tree.
	allCores []*coreCtx
	// clocks[i] mirrors allCores[i].model.Now(), with ^0 standing for a
	// finished core: the per-core state a snapshot saves and tree is
	// rebuilt from.
	clocks []uint64
	// tree is a loser tree over the cores' keys clock<<coreBits | index
	// (^0 for a finished core or a padding leaf). Its leaves are implicit:
	// core i is leaf len(tree)+i, len(tree) is the power of two at or above
	// the core count, tree[p] for 1 <= p < len(tree) holds the loser of the
	// match at node p, and tree[0] holds the overall winner, the next core
	// to step. Only the winner's key changes in a step, so Step replays just
	// its leaf-to-root path (replay), one compare per level. Keys order by
	// clock and then lowest CPU ID, the order of the linear scan this queue
	// replaced, so the reference interleaving is unchanged.
	//oltpvet:derived not saved: Load rebuilds the tree from the restored per-core clocks (rebuildTree)
	tree []uint64
	dir  *coherence.Directory

	// latByCat / stallByCat are latFor/stallFor precomputed as arrays
	// indexed by coherence.Category, so the per-miss category mapping is a
	// load instead of a switch.
	latByCat   [4]uint32
	stallByCat [4]cpu.StallCat

	classifier *cache.Classifier // only when cfg.Classify

	writeInvalOps uint64
	steps         uint64
}

// NewSystem assembles a machine around the workload.
func NewSystem(cfg Config, w Workload) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cores := cfg.CoresPerChip
	chips := cfg.Processors / cores
	s := &System{cfg: cfg, fingerprint: cfg.Fingerprint(), lat: cfg.Latencies(), w: w, chips: chips, cores: cores}
	if cs, ok := w.(CommitSource); ok {
		s.commits = cs.CommitCounter()
	}
	s.dir = coherence.New(chips, w.HomeOf, (*peers)(s))
	s.dir.Migratory = !cfg.NoMigratory
	for i := 0; i < chips; i++ {
		n := &node{
			id: i,
			l2: cache.New(cfg.L2CacheConfig()),
			vb: cache.NewVictimBuffer(cfg.VictimBuffers),
		}
		if cfg.RACBytes != 0 {
			n.rc = rac.New(cfg.RACBytes)
		}
		for c := 0; c < cores; c++ {
			cc := &coreCtx{
				cpuID: i*cores + c,
				l1i:   cache.New(l1Config("L1I")),
				l1d:   cache.New(l1Config("L1D")),
				chip:  n,
			}
			if cfg.OutOfOrder {
				cc.model = cpu.NewOOO(cpu.OOOConfig{})
			} else {
				cc.inorder = cpu.NewInOrder()
				cc.model = cc.inorder
			}
			n.cores = append(n.cores, cc)
			s.allCores = append(s.allCores, cc)
			s.clocks = append(s.clocks, 0)
		}
		s.nodes = append(s.nodes, n)
	}
	s.latByCat = [4]uint32{
		coherence.CatLocal:          s.lat.Local,
		coherence.CatRemoteClean:    s.lat.Remote,
		coherence.CatRemoteDirty:    s.lat.RemoteDirty,
		coherence.CatRemoteDirtyRAC: s.lat.RemoteDirtyRAC,
	}
	s.stallByCat = [4]cpu.StallCat{
		coherence.CatLocal:          cpu.CatLocal,
		coherence.CatRemoteClean:    cpu.CatRemote,
		coherence.CatRemoteDirty:    cpu.CatRemoteDirty,
		coherence.CatRemoteDirtyRAC: cpu.CatRemoteDirty,
	}
	if cfg.Classify {
		s.classifier = cache.NewClassifier(int(cfg.L2SizeBytes / 64))
	}
	s.rebuildTree()
	return s, nil
}

// Tree keys: a live core's key is clock<<coreBits | CPU ID (Validate caps
// Processors at 128 = 1<<coreBits), and doneKey, above every live key,
// marks a finished core or a padding leaf.
const (
	coreBits = 7
	coreMask = 1<<coreBits - 1
	doneKey  = ^uint64(0)
	// maxClock is the last clock a key can carry: beyond it the shift
	// would drop bits of the clock, or (at maxClock+1 on CPU 127) yield
	// doneKey, and reorder the cores.
	maxClock = doneKey>>coreBits - 1
)

// keyOf packs core i's clock into its tree key.
func keyOf(clock uint64, i int) uint64 {
	if clock > maxClock {
		panic("core: a core clock reached 2^57 - 1 cycles, beyond what the scheduling tree orders")
	}
	return clock<<coreBits | uint64(i)
}

// rebuildTree builds the loser tree from s.clocks. Called at construction
// and after a snapshot load replaces the clocks wholesale.
func (s *System) rebuildTree() {
	leaves := 1
	for leaves < len(s.clocks) {
		leaves <<= 1
	}
	s.tree = make([]uint64, leaves)
	s.tree[0] = s.build(1)
}

// build fills the losers of the subtree rooted at node p and returns its
// winner.
func (s *System) build(p int) uint64 {
	if p >= len(s.tree) {
		i := p - len(s.tree)
		if i >= len(s.clocks) || s.clocks[i] == doneKey {
			return doneKey
		}
		return keyOf(s.clocks[i], i)
	}
	a, b := s.build(2*p), s.build(2*p+1)
	s.tree[p] = max(a, b)
	return min(a, b)
}

// replay re-seats the winner, core i, under its new key: walking from its
// leaf to the root, the smaller of the carried key and each node's loser
// goes on up and the larger stays as the node's loser.
func (s *System) replay(i int, key uint64) {
	t := s.tree
	for p := (len(t) + i) >> 1; p > 0; p >>= 1 {
		l := t[p]
		t[p] = max(l, key)
		key = min(l, key)
	}
	t[0] = key
}

// MustNewSystem panics on configuration errors.
func MustNewSystem(cfg Config, w Workload) *System {
	s, err := NewSystem(cfg, w)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the machine configuration.
func (s *System) Config() Config { return s.cfg }

// Directory exposes the coherence directory (tests, invariant checks).
func (s *System) Directory() *coherence.Directory { return s.dir }

// chipOf maps a CPU index to its chip.
func (s *System) chipOf(cpuID int) *node { return s.nodes[cpuID/s.cores] }

// L2 returns the L2 of the chip hosting cpuID.
func (s *System) L2(cpuID int) *cache.Cache { return s.chipOf(cpuID).l2 }

// RACOf returns the RAC of the chip hosting cpuID (nil without one).
func (s *System) RACOf(cpuID int) *rac.RAC { return s.chipOf(cpuID).rc }

// L1I returns cpuID's instruction cache (tests, invariant checks).
func (s *System) L1I(cpuID int) *cache.Cache {
	return s.chipOf(cpuID).cores[cpuID%s.cores].l1i
}

// L1D returns cpuID's data cache (tests, invariant checks).
func (s *System) L1D(cpuID int) *cache.Cache {
	return s.chipOf(cpuID).cores[cpuID%s.cores].l1d
}

// Model returns cpuID's timing model.
func (s *System) Model(cpuID int) cpu.Model {
	return s.chipOf(cpuID).cores[cpuID%s.cores].model
}

// Classifier returns the miss classifier (nil unless cfg.Classify).
func (s *System) Classifier() *cache.Classifier { return s.classifier }

// Latency returns the resolved latency table.
func (s *System) Latency() LatencyTable { return s.lat }

// Chips returns the chip count (== Processors unless CoresPerChip > 1).
func (s *System) Chips() int { return s.chips }

// Committed returns the workload's committed-transaction count — the
// protocol position the warmup/measure boundaries and the checkpoint
// quanta are defined in.
func (s *System) Committed() uint64 { return s.w.Committed() }

// Steps returns the total simulator steps executed by this System. The
// counter rides in the snapshot, so a run resumed from a checkpoint
// continues the count of the run that wrote it.
func (s *System) Steps() uint64 { return s.steps }

// FastForwarded always returns 0: every reference is retired by Step one
// at a time, so no reference is ever bulk-retired. It remains only so
// callers that report bulk-path coverage keep building; that coverage now
// reads 0.
func (s *System) FastForwarded() uint64 { return 0 }

// Step advances the earliest CPU by one reference. It returns false when
// every CPU's workload is exhausted.
func (s *System) Step() bool {
	// The loser tree keeps the earliest core's key at tree[0]: selection is
	// one load, and the post-step reorder replays one leaf-to-root path.
	win := s.tree[0]
	if win == doneKey {
		return false
	}
	idx := int(win & coreMask)
	co := s.allCores[idx]
	var clock uint64
	if len(co.run) == 0 {
		run, st, wake := s.w.Next(co.cpuID, win>>coreBits)
		switch st {
		case kernel.StatusDone:
			s.clocks[idx] = doneKey
			s.replay(idx, doneKey)
			return true
		case kernel.StatusIdle:
			if m := co.inorder; m != nil {
				m.AdvanceTo(wake)
				clock = m.Now()
			} else {
				co.model.AdvanceTo(wake)
				clock = co.model.Now()
			}
			s.clocks[idx] = clock
			s.replay(idx, keyOf(clock, idx))
			return true
		}
		co.run = run
	}
	r := co.run[0]
	co.run = co.run[1:]
	lat, cat := s.access(co.chip, co, r)
	if m := co.inorder; m != nil {
		m.Account(r, lat, cat)
		clock = m.Now()
	} else {
		co.model.Account(r, lat, cat)
		clock = co.model.Now()
	}
	s.steps++
	s.clocks[idx] = clock
	s.replay(idx, keyOf(clock, idx))
	return true
}

// refBudgetPerTxn is the deadlock-guard allowance: how many steps each core
// may take per outstanding committed transaction before RunUntil declares
// the scheduler stuck. At paper scale a committed transaction costs about
// 830 references across the whole machine, at 1 CPU and at 8 alike (plus
// idleRecheck-paced naps on waiting cores), so a two-million-step
// allowance per core is over three orders of magnitude of headroom — far
// beyond any latency sweep, yet tight enough that a genuinely wedged
// scheduler dies in milliseconds of wall time instead of minutes.
const refBudgetPerTxn = 2_000_000

// stepBound derives RunUntil's deadlock bound from the work remaining:
// outstanding transactions × per-transaction reference budget × core count,
// saturating instead of overflowing for absurd targets.
func (s *System) stepBound(target uint64) uint64 {
	remaining := uint64(1)
	if c := s.w.Committed(); target > c {
		remaining += target - c
	}
	procs := uint64(len(s.allCores))
	if remaining > ^uint64(0)/refBudgetPerTxn/procs {
		return ^uint64(0)
	}
	return remaining * refBudgetPerTxn * procs
}

// RunUntil steps the system until the workload has committed target
// transactions (or all CPUs are done). The stop condition is tested after
// every step, so the run halts at exactly the reference whose segment drain
// crossed the commit boundary — warmup never bleeds references into the
// measurement window, and a run chunked into several RunUntil calls (the
// checkpoint loop) lands on the same boundaries as an uninterrupted one. It
// panics if the simulation exceeds the stepBound-derived budget, which
// indicates a scheduling deadlock.
func (s *System) RunUntil(target uint64) {
	var guard uint64
	bound := s.stepBound(target)
	commits := s.commits
	for {
		if commits != nil {
			if *commits >= target {
				return
			}
		} else if s.w.Committed() >= target {
			return
		}
		if !s.Step() {
			return
		}
		guard++
		if guard > bound {
			s.deadlockPanic(guard, target)
		}
	}
}

// deadlockPanic reports a run that exceeded its derived step budget.
func (s *System) deadlockPanic(guard, target uint64) {
	msg := fmt.Sprintf("core: %d steps without reaching %d committed transactions; scheduler deadlock?", guard, target)
	if w, ok := s.w.(interface{ Scheduler() *kernel.Scheduler }); ok {
		msg += "\n" + w.Scheduler().DumpState()
	}
	panic(msg)
}

// ResetStats zeroes every statistic while preserving architectural state
// (cache contents, directory, workload position) — called at the end of
// warmup.
func (s *System) ResetStats() {
	for _, n := range s.nodes {
		for _, co := range n.cores {
			co.l1i.ResetStats()
			co.l1d.ResetStats()
			co.model.ResetStats()
		}
		n.l2.ResetStats()
		if n.rc != nil {
			n.rc.ResetStats()
		}
		n.miss = stats.MissTable{}
		n.stores = 0
	}
	s.dir.ResetStats()
	s.writeInvalOps = 0
}

// Collect summarizes the stats accumulated since the last ResetStats.
func (s *System) Collect(name string, txns uint64) stats.RunResult {
	res := stats.RunResult{Name: name, Txns: txns}
	var l1iAcc, l1iMiss, l1dAcc, l1dMiss uint64
	for _, n := range s.nodes {
		for _, co := range n.cores {
			res.Breakdown.Add(co.model.Breakdown())
			l1iAcc += co.l1i.Accesses
			l1iMiss += co.l1i.Misses()
			l1dAcc += co.l1d.Accesses
			l1dMiss += co.l1d.Misses()
		}
		var racProbes, racHits uint64
		if n.rc != nil {
			racProbes, racHits = n.rc.Stats.Probes, n.rc.Stats.Hits
		}
		res.AddNode(&n.miss, n.stores, n.l2.Accesses, racProbes, racHits)
	}
	if l1iAcc > 0 {
		res.L1IMissRate = float64(l1iMiss) / float64(l1iAcc)
	}
	if l1dAcc > 0 {
		res.L1DMissRate = float64(l1dMiss) / float64(l1dAcc)
	}
	res.L1IAccesses = l1iAcc
	res.L1IMisses = l1iMiss
	res.L1DAccesses = l1dAcc
	res.L1DMisses = l1dMiss
	res.Invalidations = s.dir.Stats.Invalidations
	res.Writebacks = s.dir.Stats.Writebacks
	res.WriteInvalOps = s.writeInvalOps
	if nd := res.Breakdown.NonIdle(); nd > 0 {
		res.KernelFraction = float64(res.Breakdown.Kernel) / float64(nd)
		res.Utilization = float64(res.Breakdown.Busy) / float64(nd)
	}
	res.IdleCycles = res.Breakdown.Idle
	return res
}

// Run executes the standard experiment protocol: warm up for warmupTxns
// committed transactions, reset statistics, measure for measureTxns more,
// and return the result.
func (s *System) Run(warmupTxns, measureTxns uint64) stats.RunResult {
	s.RunUntil(warmupTxns)
	return s.RunMeasured(measureTxns)
}

// access walks one reference through the memory hierarchy, mutating cache
// and directory state, and returns the stall latency and its category.
func (s *System) access(n *node, co *coreCtx, r memref.Ref) (uint32, cpu.StallCat) {
	line := r.Line()
	kind := r.Kind()
	ifetch := kind == memref.IFetch
	write := kind == memref.Store

	if write {
		n.stores++
	}

	// L1.
	l1 := co.l1d
	if ifetch {
		l1 = co.l1i
	}
	st1 := l1.Access(line)
	if st1 != cache.Invalid {
		if !write {
			return 0, cpu.CatNone
		}
		switch st1 {
		case cache.Modified:
			return 0, cpu.CatNone
		case cache.Exclusive:
			// Silent E->M upgrade; keep the L2 state in sync so evictions
			// and interventions see the dirtiness.
			l1.SetState(line, cache.Modified)
			n.l2.SetState(line, cache.Modified)
			return 0, cpu.CatNone
		}
		// Shared in L1: fall through to the L2 permission path.
	}

	// L2 (shared by the chip's cores).
	st2 := n.l2.Access(line)
	if s.classifier != nil {
		s.classifier.Observe(line, st2 != cache.Invalid)
	}
	if st2 != cache.Invalid {
		if !write {
			st := l1FillState(st2, ifetch)
			if s.siblingShare(n, co, line) {
				// Another core on this chip holds a copy: fill read-only so
				// the single-writer invariant holds within the chip.
				st = cache.Shared
			}
			s.fillL1(n, l1, line, st)
			return s.lat.L2Hit, cpu.CatL2Hit
		}
		if st2 == cache.Exclusive || st2 == cache.Modified {
			s.siblingInvalidate(n, co, line)
			n.l2.SetState(line, cache.Modified)
			s.fillL1(n, l1, line, cache.Modified)
			return s.lat.L2Hit, cpu.CatL2Hit
		}
		// Shared in L2: upgrade through the directory.
		res := s.dir.Write(line, n.id)
		if res.Invalidations > 0 {
			s.writeInvalOps++
		}
		n.miss.CountUpgrade(res.Cat)
		s.siblingInvalidate(n, co, line)
		n.l2.SetState(line, cache.Modified)
		s.fillL1(n, l1, line, cache.Modified)
		return s.latFor(res.Cat), s.stallFor(res.Cat)
	}

	// L2 miss: victim buffer (if configured).
	if vst, ok := n.vb.Take(line); ok {
		if write && vst == cache.Shared {
			res := s.dir.Write(line, n.id)
			if res.Invalidations > 0 {
				s.writeInvalOps++
			}
			n.miss.CountUpgrade(res.Cat)
			s.insertL2(n, line, cache.Modified)
			s.fillL1(n, l1, line, cache.Modified)
			return s.latFor(res.Cat), s.stallFor(res.Cat)
		}
		if write {
			vst = cache.Modified
		}
		s.insertL2(n, line, vst)
		s.fillL1(n, l1, line, l1FillState(vst, ifetch))
		return s.lat.L2Hit, cpu.CatL2Hit
	}

	// L2 miss: own RAC (remote lines only).
	if n.rc != nil && s.dir.Home(line) != n.id {
		if rst, ok := n.rc.Take(line); ok {
			s.dir.MoveToL2(line, n.id)
			if write && rst == cache.Shared {
				// Data was local in the RAC but write permission still needs
				// the directory round trip.
				res := s.dir.Write(line, n.id)
				if res.Invalidations > 0 {
					s.writeInvalOps++
				}
				n.miss.CountUpgrade(res.Cat)
				s.insertL2(n, line, cache.Modified)
				s.fillL1(n, l1, line, cache.Modified)
				return s.latFor(res.Cat), s.stallFor(res.Cat)
			}
			st := rst
			if write {
				st = cache.Modified
			}
			s.insertL2(n, line, st)
			s.fillL1(n, l1, line, l1FillState(st, ifetch))
			// A RAC hit is a miss satisfied locally (paper Fig. 11 counts
			// these as local misses).
			n.miss.Count(ifetch, coherence.CatLocal)
			n.miss.CountRACHit(ifetch)
			return s.lat.RACHit, cpu.CatLocal
		}
	}

	// Directory transaction.
	var res coherence.Result
	if write {
		res = s.dir.Write(line, n.id)
		if res.Invalidations > 0 {
			s.writeInvalOps++
		}
	} else {
		res = s.dir.Read(line, n.id)
	}
	s.insertL2(n, line, res.Grant)
	s.fillL1(n, l1, line, l1FillState(res.Grant, ifetch))
	n.miss.Count(ifetch, res.Cat)
	return s.latFor(res.Cat), s.stallFor(res.Cat)
}

// siblingShare demotes other cores' exclusive L1 copies of line when a core
// reads through the shared L2 (single-writer invariant within the chip) and
// reports whether any sibling holds a copy.
func (s *System) siblingShare(n *node, co *coreCtx, line uint64) bool {
	if len(n.cores) == 1 {
		return false
	}
	held := false
	for _, other := range n.cores {
		if other == co {
			continue
		}
		switch other.l1d.Probe(line) {
		case cache.Modified:
			// Dirty data merges into the shared L2.
			n.l2.SetState(line, cache.Modified)
			other.l1d.SetState(line, cache.Shared)
			held = true
		case cache.Exclusive:
			other.l1d.SetState(line, cache.Shared)
			held = true
		case cache.Shared:
			held = true
		}
	}
	return held
}

// siblingInvalidate removes other cores' L1 copies when a core writes.
func (s *System) siblingInvalidate(n *node, co *coreCtx, line uint64) {
	if len(n.cores) == 1 {
		return
	}
	for _, other := range n.cores {
		if other == co {
			continue
		}
		other.l1d.Invalidate(line)
		other.l1i.Invalidate(line)
	}
}

// insertL2 installs line in chip n's L2 and unwinds the eviction cascade:
// inclusion back-invalidation of every core's L1s, victim buffer staging,
// RAC insertion for remote victims, and directory writebacks/hints.
func (s *System) insertL2(n *node, line uint64, st cache.State) {
	victim, vst := n.l2.Insert(line, st)
	if vst == cache.Invalid {
		return
	}
	// Inclusion: pull the line out of all the chip's L1s; a dirty L1 copy
	// makes the victim dirty regardless of the L2 state.
	for _, co := range n.cores {
		if d := co.l1d.Invalidate(victim); d == cache.Modified {
			vst = cache.Modified
		}
		co.l1i.Invalidate(victim)
	}

	// Victim buffer stage (identity pass-through when disabled).
	victim, vst = n.vb.Put(victim, vst)
	if vst == cache.Invalid {
		return
	}
	s.retire(n, victim, vst)
}

// retire finally disposes of an evicted line: into the RAC if it is remote
// and a RAC exists, otherwise back to its home directory.
func (s *System) retire(n *node, line uint64, st cache.State) {
	if n.rc != nil && s.dir.Home(line) != n.id {
		rvict, rvst := n.rc.Insert(line, st)
		s.dir.MoveToRAC(line, n.id)
		if rvst != cache.Invalid {
			s.dispose(n, rvict, rvst)
		}
		return
	}
	s.dispose(n, line, st)
}

// dispose notifies the directory that chip n dropped line.
func (s *System) dispose(n *node, line uint64, st cache.State) {
	if st == cache.Modified {
		s.dir.WritebackDirty(line, n.id)
		return
	}
	s.dir.EvictClean(line, n.id)
}

// fillL1 installs a line into one of n's L1s, folding a dirty L1 victim back
// into the L2 (which must hold it, by inclusion).
func (s *System) fillL1(n *node, l1 *cache.Cache, line uint64, st cache.State) {
	victim, vst := l1.Insert(line, st)
	if vst == cache.Modified {
		// Write the dirty L1 victim through to the L2 copy.
		if !n.l2.SetState(victim, cache.Modified) {
			// The L2 lost the line without back-invalidating: inclusion bug.
			panic(fmt.Sprintf("core: L1 dirty victim %#x absent from L2", victim))
		}
	}
}

// l1FillState maps the L2/grant state to the L1 fill state. Instruction
// lines are always read-only.
func l1FillState(st cache.State, ifetch bool) cache.State {
	if ifetch {
		return cache.Shared
	}
	switch st {
	case cache.Modified:
		return cache.Modified
	case cache.Exclusive:
		return cache.Exclusive
	default:
		return cache.Shared
	}
}

// latFor maps a directory category to its latency via the precomputed table
// (an out-of-range category panics on the bounds check, as the old switch
// did on its default arm).
func (s *System) latFor(cat coherence.Category) uint32 { return s.latByCat[cat] }

// stallFor maps a directory category to its breakdown bucket.
func (s *System) stallFor(cat coherence.Category) cpu.StallCat { return s.stallByCat[cat] }

// peers adapts System to the directory's Peers interface (node == chip).
type peers System

// InvalidatePeer implements coherence.Peers.
func (p *peers) InvalidatePeer(nodeID int, line uint64) bool {
	n := p.nodes[nodeID]
	dirty := false
	for _, co := range n.cores {
		if co.l1d.Invalidate(line) == cache.Modified {
			dirty = true
		}
		co.l1i.Invalidate(line)
	}
	if n.l2.Invalidate(line) == cache.Modified {
		dirty = true
	}
	if n.vb.Invalidate(line) == cache.Modified {
		dirty = true
	}
	if n.rc != nil && n.rc.Invalidate(line) == cache.Modified {
		dirty = true
	}
	return dirty
}

// DowngradePeer implements coherence.Peers.
func (p *peers) DowngradePeer(nodeID int, line uint64) bool {
	n := p.nodes[nodeID]
	dirty := false
	for _, co := range n.cores {
		if st := co.l1d.Probe(line); st == cache.Modified || st == cache.Exclusive {
			if st == cache.Modified {
				dirty = true
			}
			co.l1d.SetState(line, cache.Shared)
		}
	}
	if st := n.l2.Probe(line); st == cache.Modified || st == cache.Exclusive {
		if st == cache.Modified {
			dirty = true
		}
		n.l2.SetState(line, cache.Shared)
	}
	if st := n.vb.Downgrade(line); st == cache.Modified {
		dirty = true
	}
	if n.rc != nil {
		if st := n.rc.Probe(line); st == cache.Modified {
			dirty = true
		}
		n.rc.Downgrade(line)
	}
	return dirty
}
