package tpcb

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"oltpsim/internal/memref"
	"oltpsim/internal/sim"
)

func newTestEngine(t *testing.T, em Emitter) *Engine {
	t.Helper()
	cfg := SmallConfig()
	e, err := NewEngine(cfg, &BumpAllocator{}, em, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.Prewarm()
	return e
}

func runTxns(e *Engine, n int, seed uint64) {
	r := sim.NewRNG(seed)
	sess := e.NewSession(0, 1<<40)
	for i := 0; i < n; i++ {
		lsn := e.ExecTxn(sess, e.DrawTxn(r))
		target, _ := e.LogWriterGather()
		if target < lsn {
			panic("gather target below commit lsn")
		}
		e.LogWriterComplete(target)
		e.PostCommit(sess)
	}
}

func TestInvariantsAfterTransactions(t *testing.T) {
	e := newTestEngine(t, NopEmitter{})
	runTxns(e, 500, 7)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if e.HistoryLen() != 500 {
		t.Fatalf("history %d", e.HistoryLen())
	}
	a, tl, b, d := e.Balances()
	if a != d || tl != d || b != d {
		t.Fatalf("balances %d %d %d vs deltas %d", a, tl, b, d)
	}
}

func TestInvariantsProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		e := MustNewEngine(SmallConfig(), &BumpAllocator{}, NopEmitter{}, seed)
		e.Prewarm()
		runTxns(e, int(n%64)+1, seed)
		return e.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDrawTxnDistribution(t *testing.T) {
	e := newTestEngine(t, NopEmitter{})
	r := sim.NewRNG(3)
	remote := 0
	const n = 20_000
	for i := 0; i < n; i++ {
		in := e.DrawTxn(r)
		if in.Teller < 0 || in.Teller >= e.cfg.Tellers() {
			t.Fatal("teller out of range")
		}
		if in.Branch != in.Teller/TellersPerBranch {
			t.Fatal("branch does not match teller")
		}
		if in.Acct < 0 || in.Acct >= e.cfg.Accounts() {
			t.Fatal("account out of range")
		}
		if in.Acct/e.cfg.AccountsPerBranch != in.Branch {
			remote++
		}
		if in.Delta < -999_999 || in.Delta > 999_999 {
			t.Fatalf("delta %d out of TPC-B range", in.Delta)
		}
	}
	frac := float64(remote) / n
	if frac < 0.13 || frac > 0.17 {
		t.Fatalf("remote-branch fraction %.3f, want ~0.15 (TPC-B rule)", frac)
	}
}

func TestAccountBalanceUpdated(t *testing.T) {
	e := newTestEngine(t, NopEmitter{})
	sess := e.NewSession(0, 1<<40)
	in := TxnInput{Teller: 0, Branch: 0, Acct: 42, Delta: 100}
	e.ExecTxn(sess, in)
	e.PostCommit(sess)
	if e.AccountBalance(42) != 100 {
		t.Fatalf("balance %d", e.AccountBalance(42))
	}
	e.ExecTxn(sess, TxnInput{Teller: 0, Branch: 0, Acct: 42, Delta: -30})
	if e.AccountBalance(42) != 70 {
		t.Fatalf("balance %d after second txn", e.AccountBalance(42))
	}
}

func TestEmissionShape(t *testing.T) {
	var em CountingEmitter
	cfg := SmallConfig()
	e := MustNewEngine(cfg, &BumpAllocator{}, &em, 1)
	e.Prewarm()
	sess := e.NewSession(0, 1<<40)
	r := sim.NewRNG(5)
	for i := 0; i < 10; i++ {
		e.ExecTxn(sess, e.DrawTxn(r))
		e.PostCommit(sess)
	}
	perTxnInstrs := float64(em.Instrs) / 10
	perTxnLoads := float64(em.Loads) / 10
	perTxnStores := float64(em.Stores) / 10
	// The transaction path must look like OLTP: thousands of instructions,
	// a heavy store component (metadata, redo, undo, history).
	if perTxnInstrs < 2000 || perTxnInstrs > 50_000 {
		t.Fatalf("instructions per txn %.0f implausible", perTxnInstrs)
	}
	if perTxnLoads < 30 || perTxnStores < 30 {
		t.Fatalf("loads %.0f stores %.0f per txn too few", perTxnLoads, perTxnStores)
	}
	if perTxnStores < perTxnLoads/4 {
		t.Fatalf("store share too small for TPC-B (loads %.0f stores %.0f)", perTxnLoads, perTxnStores)
	}
}

func TestLogGroupCommit(t *testing.T) {
	e := newTestEngine(t, NopEmitter{})
	r := sim.NewRNG(9)
	s1 := e.NewSession(1, 1<<40)
	s2 := e.NewSession(2, 2<<40)
	lsn1 := e.ExecTxn(s1, e.DrawTxn(r))
	lsn2 := e.ExecTxn(s2, e.DrawTxn(r))
	if lsn2 <= lsn1 {
		t.Fatal("LSNs not monotonic")
	}
	target, bytes := e.LogWriterGather()
	if target < lsn2 || bytes == 0 {
		t.Fatalf("gather target %d bytes %d", target, bytes)
	}
	e.LogWriterComplete(target)
	if e.Log().Pending() {
		t.Fatal("pending redo after complete")
	}
	// A second gather with nothing new must be empty.
	if _, bytes := e.LogWriterGather(); bytes != 0 {
		t.Fatalf("idle gather returned %d bytes", bytes)
	}
}

func TestLogWraparound(t *testing.T) {
	e := newTestEngine(t, NopEmitter{})
	r := sim.NewRNG(11)
	sess := e.NewSession(0, 1<<40)
	// Enough transactions to wrap the small log buffer several times.
	for i := 0; i < 2000; i++ {
		e.ExecTxn(sess, e.DrawTxn(r))
		t1, _ := e.LogWriterGather()
		e.LogWriterComplete(t1)
		e.PostCommit(sess)
	}
	if e.Log().Stats.Overruns != 0 {
		t.Fatalf("log overruns %d with a keeping-up writer", e.Log().Stats.Overruns)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDBWriterCleansDirty(t *testing.T) {
	e := newTestEngine(t, NopEmitter{})
	runTxns(e, 50, 13)
	if e.Pool().DirtyBacklog() == 0 {
		t.Fatal("no dirty buffers after 50 txns")
	}
	total := 0
	for i := 0; i < 100 && e.Pool().DirtyBacklog() > 0; i++ {
		total += e.DBWriterScan(16)
	}
	if total == 0 {
		t.Fatal("DBWR wrote nothing")
	}
	if e.Pool().DirtyBacklog() != 0 {
		t.Fatalf("backlog %d remains", e.Pool().DirtyBacklog())
	}
	if e.Pool().Stats.Cleaned == 0 {
		t.Fatal("no cleaned counter")
	}
}

func TestPrewarmMakesResident(t *testing.T) {
	cfg := SmallConfig()
	e := MustNewEngine(cfg, &BumpAllocator{}, NopEmitter{}, 1)
	e.Prewarm()
	if e.Pool().Resident() != cfg.TotalBlocks() {
		t.Fatalf("resident %d, want %d", e.Pool().Resident(), cfg.TotalBlocks())
	}
	// Steady state: transactions cause no pool misses.
	runTxns(e, 200, 17)
	if e.Pool().Stats.Misses != 0 {
		t.Fatalf("pool misses %d in steady state", e.Pool().Stats.Misses)
	}
}

func TestPoolMissWithoutPrewarm(t *testing.T) {
	cfg := SmallConfig()
	e := MustNewEngine(cfg, &BumpAllocator{}, NopEmitter{}, 1)
	sess := e.NewSession(0, 1<<40)
	e.ExecTxn(sess, TxnInput{Teller: 0, Branch: 0, Acct: 0, Delta: 1})
	if e.Pool().Stats.Misses == 0 {
		t.Fatal("cold pool produced no misses")
	}
}

func TestHistoryBlockRotation(t *testing.T) {
	e := newTestEngine(t, NopEmitter{})
	runTxns(e, 400, 19)
	if e.Stats.HistoryBlocks == 0 {
		t.Fatal("history never advanced to a new block")
	}
	if e.Stats.UndoBlocks == 0 {
		t.Fatal("undo window never rotated")
	}
}

func TestLatchActivity(t *testing.T) {
	e := newTestEngine(t, NopEmitter{})
	runTxns(e, 10, 23)
	// Each transaction takes at least: redo alloc per statement + CBC per
	// get + copy latches.
	if e.Latches().Acquires < 10*10 {
		t.Fatalf("latch acquires %d too few", e.Latches().Acquires)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := SmallConfig()
	bad.BufferFrames = 10 // cannot hold the database
	if _, err := NewEngine(bad, &BumpAllocator{}, NopEmitter{}, 1); err == nil {
		t.Fatal("undersized pool accepted")
	}
	bad2 := SmallConfig()
	bad2.Branches = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero branches accepted")
	}
}

func TestBlockLayoutDisjoint(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper scale: 40 branches, 400 tellers, 4M accounts.
	if cfg.Accounts() != 4_000_000 || cfg.Tellers() != 400 {
		t.Fatalf("scale wrong: %d accounts %d tellers", cfg.Accounts(), cfg.Tellers())
	}
	e := MustNewEngine(cfg, &BumpAllocator{}, NopEmitter{}, 1)
	// Block number ranges must be disjoint and ordered.
	if !(e.branchBlock0 < e.tellerBlock0 && e.tellerBlock0 < e.accountBlock0 &&
		e.accountBlock0 < e.historyBlock0 && e.historyBlock0 < e.undoBlock0) {
		t.Fatal("block ranges out of order")
	}
	if int(e.undoBlock0)+cfg.UndoBlocks() != cfg.TotalBlocks() {
		t.Fatal("total block count inconsistent")
	}
}

func TestCodeFootprint(t *testing.T) {
	alloc := &BumpAllocator{}
	sc := newServerCode(alloc)
	total := sc.TotalBytes()
	// The paper's premise: the server instruction footprint overwhelms a
	// 64 KB L1 but fits comfortably in a 2 MB associative L2.
	if total < 256<<10 || total > 1<<20 {
		t.Fatalf("server code footprint %d bytes outside plausible band", total)
	}
}

func TestCodeFnWalk(t *testing.T) {
	fn := &CodeFn{Name: "w", Base: 0x1000, SizeLines: 8, PathInstrs: 40, Loopy: true}
	var lines []uint64
	var instrs int
	fn.Lines(func(a uint64, n int) { lines = append(lines, a); instrs += n })
	if instrs != 40 {
		t.Fatalf("instrs %d", instrs)
	}
	if len(lines) != 3 { // ceil(40/16)
		t.Fatalf("lines %d", len(lines))
	}
	if lines[0] != 0x1000 || lines[1] != 0x1040 {
		t.Fatalf("walk addresses wrong: %#x %#x", lines[0], lines[1])
	}
}

func TestCodeFnPersistentCursor(t *testing.T) {
	fn := &CodeFn{Name: "p", Base: 0, SizeLines: 100, PathInstrs: 160} // 10 lines per call
	first := make(map[uint64]bool)
	fn.Lines(func(a uint64, n int) { first[a] = true })
	overlap := 0
	fn.Lines(func(a uint64, n int) {
		if first[a] {
			overlap++
		}
	})
	if overlap != 0 {
		t.Fatalf("non-loopy second call revisited %d lines", overlap)
	}
}

func TestCodeFnStride(t *testing.T) {
	fn := &CodeFn{Name: "s", Base: 0, SizeLines: 100, PathInstrs: 32, Loopy: true, Stride: 5}
	var a1, a2 uint64
	fn.Lines(func(a uint64, n int) { a1 = a })
	fn.Lines(func(a uint64, n int) { a2 = a })
	_ = a1
	if a2 != 5*64+64 { // second call starts at line 5; captured addr is its 2nd line
		t.Fatalf("stride walk second call ended at %#x", a2)
	}
}

func TestBumpAllocatorAlignment(t *testing.T) {
	a := &BumpAllocator{}
	x := a.Alloc("x", 100, KindShared)
	y := a.Alloc("y", 100, KindShared)
	if y <= x || y%8192 != 0 {
		t.Fatalf("allocator alignment wrong: %#x %#x", x, y)
	}
}

// TestPoolZetaSums: each database scale's shared pool has a precomputed
// Zipf sum, and it equals the sum sim.Zeta computes, bit for bit, so an
// engine built from the constant draws the stream a summed one would.
func TestPoolZetaSums(t *testing.T) {
	for _, sc := range []struct {
		name string
		cfg  Config
	}{
		{"DefaultConfig", DefaultConfig()},
		{"QuickConfig", QuickConfig()},
		{"SmallConfig", SmallConfig()},
	} {
		lines := sc.cfg.SharedPoolBytes / memref.LineBytes
		got, ok := poolZetaSum(lines)
		if !ok {
			t.Errorf("%s: no precomputed sum for its %d-line shared pool", sc.name, lines)
			continue
		}
		if want := sim.Zeta(lines, poolTheta); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: precomputed sum %v, sim.Zeta gives %v", sc.name, got, want)
		}
	}
}

// TestEngineBuildAllocation bounds what building and prewarming the
// paper-scale engine allocates far below the 32 MB that a dense table of
// its 4,000,000 balances would take: the balance tables grow with the
// transactions run, and the block index is 4 bytes per block.
func TestEngineBuildAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := MustNewEngine(DefaultConfig(), &BumpAllocator{}, NopEmitter{}, 1)
	e.Prewarm()
	runtime.ReadMemStats(&after)
	const limit = 8 << 20
	if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
		t.Errorf("building the paper-scale engine allocated %d bytes, want at most %d", grew, limit)
	}
	runtime.KeepAlive(e)
}
