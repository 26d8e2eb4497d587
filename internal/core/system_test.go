package core

import (
	"testing"

	"oltpsim/internal/cache"
	"oltpsim/internal/kernel"
	"oltpsim/internal/memref"
	"oltpsim/internal/oltp"
)

// scriptSource is a minimal Workload for protocol-level system tests: a
// fixed list of refs per CPU, all pages homed round-robin by line.
type scriptSource struct {
	refs  [][]memref.Ref
	pos   []int
	nodes int
}

func newScript(nodes int) *scriptSource {
	return &scriptSource{refs: make([][]memref.Ref, nodes), pos: make([]int, nodes), nodes: nodes}
}

func (s *scriptSource) add(cpu int, r memref.Ref) { s.refs[cpu] = append(s.refs[cpu], r) }

func (s *scriptSource) Next(cpu int, now uint64) (memref.Ref, kernel.Status, uint64) {
	if s.pos[cpu] >= len(s.refs[cpu]) {
		return memref.Ref{}, kernel.StatusDone, 0
	}
	r := s.refs[cpu][s.pos[cpu]]
	s.pos[cpu]++
	return r, kernel.StatusRef, 0
}

func (s *scriptSource) HomeOf(line uint64) int {
	return int(line>>memref.PageShift) % s.nodes
}

func (s *scriptSource) Committed() uint64 { return 0 }

func smallCfg(procs int) Config {
	cfg := BaseConfig(procs, 1*MB, 4)
	return cfg
}

func runScript(t *testing.T, cfg Config, src *scriptSource) *System {
	t.Helper()
	sys, err := NewSystem(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	for sys.Step() {
	}
	return sys
}

func TestUniprocessorAllLocal(t *testing.T) {
	src := newScript(1)
	for i := 0; i < 1000; i++ {
		src.add(0, memref.New(uint64(i)*64, memref.Load, false, false, 0))
	}
	sys := runScript(t, smallCfg(1), src)
	res := sys.Collect("t", 1)
	if res.Miss.RemoteClean() != 0 || res.Miss.RemoteDirty() != 0 {
		t.Fatal("uniprocessor produced remote misses")
	}
	if res.Miss.Local() == 0 {
		t.Fatal("no local misses for cold data")
	}
	if res.Breakdown.Local == 0 {
		t.Fatal("no local stall time")
	}
}

func TestL2HitLatencyCharged(t *testing.T) {
	src := newScript(1)
	// Touch a line; then touch enough other lines to evict it from L1
	// (64KB 2-way = 512 sets) but not from the 1MB L2; then touch it again.
	src.add(0, memref.New(0, memref.Load, false, false, 0))
	for i := 1; i <= 2048; i++ {
		src.add(0, memref.New(uint64(i)*64, memref.Load, false, false, 0))
	}
	src.add(0, memref.New(0, memref.Load, false, false, 0))
	sys := runScript(t, smallCfg(1), src)
	if sys.Model(0).Breakdown().L2Hit == 0 {
		t.Fatal("no L2-hit stall recorded")
	}
}

func TestStoreMigratesOwnership(t *testing.T) {
	src := newScript(2)
	src.add(0, memref.New(4096, memref.Store, false, false, 0))
	src.add(1, memref.New(4096, memref.Load, false, false, 0))
	cfg := smallCfg(2)
	sys := runScript(t, cfg, src)
	// After CPU1's migratory read, it must own the line Modified.
	if st := sys.L2(1).Probe(4096); st != cache.Modified {
		t.Fatalf("reader L2 state %v, want Modified (migratory)", st)
	}
	if st := sys.L2(0).Probe(4096); st != cache.Invalid {
		t.Fatalf("writer L2 state %v, want Invalid", st)
	}
	res := sys.Collect("t", 1)
	if res.Miss.RemoteDirty() != 1 {
		t.Fatalf("remote dirty misses %d, want 1", res.Miss.RemoteDirty())
	}
}

func TestNoMigratoryDowngrades(t *testing.T) {
	src := newScript(2)
	src.add(0, memref.New(4096, memref.Store, false, false, 0))
	src.add(1, memref.New(4096, memref.Load, false, false, 0))
	cfg := smallCfg(2)
	cfg.NoMigratory = true
	sys := runScript(t, cfg, src)
	if st := sys.L2(1).Probe(4096); st != cache.Shared {
		t.Fatalf("reader L2 state %v, want Shared", st)
	}
	if st := sys.L2(0).Probe(4096); st != cache.Shared {
		t.Fatalf("writer L2 state %v, want Shared", st)
	}
}

func TestUpgradePath(t *testing.T) {
	src := newScript(2)
	cfg := smallCfg(2)
	cfg.NoMigratory = true
	// Both CPUs read (shared), then CPU0 writes: an upgrade with one
	// invalidation.
	src.add(0, memref.New(4096, memref.Load, false, false, 0))
	src.add(1, memref.New(4096, memref.Load, false, false, 0))
	src.add(0, memref.New(4096, memref.Store, false, false, 0))
	sys := runScript(t, cfg, src)
	res := sys.Collect("t", 1)
	if res.Miss.UpgradeTotal() != 1 {
		t.Fatalf("upgrades %d, want 1", res.Miss.UpgradeTotal())
	}
	if res.Invalidations != 1 {
		t.Fatalf("invalidations %d, want 1", res.Invalidations)
	}
	if sys.L2(1).Probe(4096) != cache.Invalid {
		t.Fatal("sharer not invalidated by upgrade")
	}
}

func TestInclusionBackInvalidation(t *testing.T) {
	// A tiny L2 forces evictions; the L1s must never hold a line the L2
	// lost.
	cfg := smallCfg(1)
	cfg.L2SizeBytes = 64 * KB // same size as L1: heavy inclusion pressure
	cfg.L2Assoc = 1
	src := newScript(1)
	for i := 0; i < 20_000; i++ {
		kind := memref.Load
		if i%3 == 0 {
			kind = memref.Store
		}
		src.add(0, memref.New(uint64((i*7919)%4096)*64, kind, false, false, 0))
	}
	sys := runScript(t, cfg, src)
	violations := 0
	check := func(l1 *cache.Cache) {
		l1.ForEachResident(func(line uint64, st cache.State) {
			if sys.L2(0).Probe(line) == cache.Invalid {
				violations++
			}
		})
	}
	check(sys.nodes[0].cores[0].l1d)
	check(sys.nodes[0].cores[0].l1i)
	if violations > 0 {
		t.Fatalf("%d L1 lines not present in L2 (inclusion broken)", violations)
	}
}

// TestCoherenceGlobalInvariant: after a random multiprocessor run, no line
// may be Modified/Exclusive in two places, and every Modified line must be
// owned by that node in the directory.
func TestCoherenceGlobalInvariant(t *testing.T) {
	const cpus = 4
	src := newScript(cpus)
	// Pseudo-random shared traffic over a small line pool.
	state := uint64(12345)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for c := 0; c < cpus; c++ {
		for i := 0; i < 5000; i++ {
			kind := memref.Load
			if next(3) == 0 {
				kind = memref.Store
			}
			src.add(c, memref.New(uint64(next(256))*64, kind, false, false, 0))
		}
	}
	sys := runScript(t, smallCfg(cpus), src)
	for line := uint64(0); line < 256*64; line += 64 {
		exclusive := -1
		for c := 0; c < cpus; c++ {
			st := sys.L2(c).Probe(line)
			if st == cache.Modified || st == cache.Exclusive {
				if exclusive >= 0 {
					t.Fatalf("line %#x exclusive at both %d and %d", line, exclusive, c)
				}
				exclusive = c
			}
		}
		if exclusive >= 0 {
			owner, _ := sys.Directory().OwnerOf(line)
			if owner != exclusive {
				t.Fatalf("line %#x exclusive at %d but directory owner %d", line, exclusive, owner)
			}
		}
	}
}

func TestRACRequiresMultiprocessor(t *testing.T) {
	cfg := smallCfg(1)
	cfg.RACBytes = 8 * MB
	if _, err := NewSystem(cfg, newScript(1)); err == nil {
		t.Fatal("uniprocessor RAC accepted")
	}
}

func TestRACCapturesRemoteVictims(t *testing.T) {
	cfg := smallCfg(2)
	cfg.L2SizeBytes = 64 * KB // tiny L2, lots of victims
	cfg.L2Assoc = 1
	cfg.RACBytes = 1 * MB
	src := newScript(2)
	// CPU0 streams over remote lines twice: the second pass hits the RAC.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 4096; i++ {
			src.add(0, memref.New(uint64(i)*64, memref.Load, false, false, 0))
		}
	}
	sys := runScript(t, cfg, src)
	rc := sys.RACOf(0)
	if rc.Stats.Hits == 0 {
		t.Fatal("RAC never hit on re-reference")
	}
	res := sys.Collect("t", 1)
	if res.Miss.RACHitsD == 0 {
		t.Fatal("no misses recorded as locally satisfied by the RAC")
	}
}

func TestVictimBufferHits(t *testing.T) {
	cfg := smallCfg(1)
	cfg.L2SizeBytes = 64 * KB
	cfg.L2Assoc = 1
	cfg.VictimBuffers = 8
	src := newScript(1)
	// Conflict pair in a direct-mapped L2: alternate accesses; the victim
	// buffer catches the ping-pong. The L2 never holds both lines, so every
	// L2-hit stall is a victim-buffer hit.
	a, b := uint64(0), uint64(64*KB)
	for i := 0; i < 200; i++ {
		src.add(0, memref.New(a, memref.Load, false, false, 0))
		src.add(0, memref.New(b, memref.Load, false, false, 0))
	}
	sys := runScript(t, cfg, src)
	if sys.Model(0).Breakdown().L2Hit == 0 {
		t.Fatal("victim buffer never hit")
	}
}

func TestIdleAccounting(t *testing.T) {
	cfg := smallCfg(1)
	src := &idleSource{}
	sys := MustNewSystem(cfg, src)
	for sys.Step() {
	}
	if sys.Model(0).Breakdown().Idle == 0 {
		t.Fatal("idle cycles not recorded")
	}
}

// idleSource emits one ref, idles, then finishes.
type idleSource struct{ step int }

func (s *idleSource) Next(cpu int, now uint64) (memref.Ref, kernel.Status, uint64) {
	s.step++
	switch s.step {
	case 1:
		return memref.New(64, memref.Load, false, false, 0), kernel.StatusRef, 0
	case 2:
		return memref.Ref{}, kernel.StatusIdle, now + 500
	case 3:
		return memref.New(128, memref.Load, false, false, 0), kernel.StatusRef, 0
	default:
		return memref.Ref{}, kernel.StatusDone, 0
	}
}

func (s *idleSource) HomeOf(line uint64) int { return 0 }
func (s *idleSource) Committed() uint64      { return 0 }

func TestResetStatsKeepsArchState(t *testing.T) {
	src := newScript(1)
	for i := 0; i < 100; i++ {
		src.add(0, memref.New(uint64(i)*64, memref.Load, false, false, 0))
	}
	sys := runScript(t, smallCfg(1), src)
	occ := sys.L2(0).Occupancy()
	sys.ResetStats()
	if sys.L2(0).Occupancy() != occ {
		t.Fatal("cache contents lost on stats reset")
	}
	after := sys.Collect("t", 1)
	if after.Miss.Total() != 0 {
		t.Fatal("miss stats survive reset")
	}
}

// TestEndToEndSmall runs the real OLTP workload end to end on 2 CPUs and
// checks the result's internal consistency plus the database invariants.
func TestEndToEndSmall(t *testing.T) {
	p := oltp.TestParams(2)
	h := oltp.MustNewHarness(p)
	cfg := BaseConfig(2, 1*MB, 4)
	sys := MustNewSystem(cfg, h)
	res := sys.Run(20, 60)
	if res.Txns < 60 {
		t.Fatalf("measured %d txns", res.Txns)
	}
	if res.Breakdown.Busy == 0 || res.Breakdown.L2Hit == 0 {
		t.Fatalf("degenerate breakdown %+v", res.Breakdown)
	}
	if res.Miss.Total() == 0 {
		t.Fatal("no misses measured")
	}
	if res.KernelFraction <= 0 || res.KernelFraction >= 1 {
		t.Fatalf("kernel fraction %v", res.KernelFraction)
	}
	if err := h.Engine().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndDeterminism: two identical systems produce identical results.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() uint64 {
		h := oltp.MustNewHarness(oltp.TestParams(2))
		sys := MustNewSystem(BaseConfig(2, 1*MB, 4), h)
		res := sys.Run(10, 40)
		return res.Breakdown.NonIdle() + res.Miss.Total()*1_000_003
	}
	if run() != run() {
		t.Fatal("simulation is not deterministic")
	}
}
