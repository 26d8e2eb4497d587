package tpcb

import (
	"fmt"

	"oltpsim/internal/memref"
	"oltpsim/internal/sim"
)

// Statement identifiers for the four SQL statements of a TPC-B transaction.
const (
	stmtUpdateAccount = iota
	stmtUpdateTeller
	stmtUpdateBranch
	stmtInsertHistory
	numStatements
)

// EngineStats aggregates workload-shape counters beyond the pool/log stats.
type EngineStats struct {
	Txns          uint64
	HistoryBlocks uint64 // history block switches
	UndoBlocks    uint64 // undo block switches
}

// Session is the per-server-process execution context: its private PGA, its
// assigned rollback segment, and its currently pinned buffers.
type Session struct {
	ID      int
	PGABase uint64
	UndoSeg int

	undoBlockIdx int // cursor within the segment's block window
	undoOff      int
	pinned       []int32 // frames pinned by the current transaction
	scanBlock    int32   // persistent scan cursor over account blocks
}

// Engine is the instrumented TPC-B database engine. All methods must be
// called from a single goroutine (the simulation loop serializes process
// execution); the "concurrency" between sessions is the simulated kind.
type Engine struct {
	cfg  Config
	em   Emitter
	code *ServerCode
	lt   *LatchTable
	pool *BufferPool
	log  *RedoLog

	// Functional table state.
	accountBal balanceTable
	tellerBal  balanceTable
	branchBal  balanceTable
	historyLen uint64
	deltaSum   int64

	// Block-number layout: [branch][teller][account][history window][undo].
	branchBlock0, tellerBlock0, accountBlock0, historyBlock0, undoBlock0 int32

	// History insert slots: rotating insert points, each with a current
	// block and fill count.
	histSlot   []histSlot
	histCursor int // next window block to hand out

	// Shared pool / library cache.
	sharedPoolBase  uint64
	sharedPoolLines int
	cursorBase      [numStatements]uint64
	cursorStats     [numStatements]uint64
	poolZipf        *sim.Zipf
	rng             *sim.RNG // structural randomness (shared-pool tail walks)

	// Row cache (dictionary metadata: object, column, privilege entries hit
	// on every statement execution), skewed like a real dc_* cache.
	rowCacheBase  uint64
	rowCacheLines int
	rcZipf        *sim.Zipf

	// Dictionary cache lines (teller/branch block lookup shortcuts).
	dictBase uint64

	// Account hash index.
	idxBucketBase uint64
	idxBuckets    int
	idxEntryBase  uint64

	Stats EngineStats
}

type histSlot struct {
	block int32
	rows  int
}

// balanceTable holds one table's nonzero balances by row; a row it does not
// hold has balance 0. A run updates a few thousand of the paper's 4,000,000
// accounts, so the table grows with the transactions executed, not with
// the database.
type balanceTable map[int]int64

// add applies delta to row's balance, dropping a row that returns to 0.
func (t balanceTable) add(row int, delta int64) {
	if v := t[row] + delta; v != 0 {
		t[row] = v
	} else {
		delete(t, row)
	}
}

// sum returns the total of the table's balances.
func (t balanceTable) sum() int64 {
	var s int64
	for _, v := range t {
		s += v
	}
	return s
}

// NewEngine builds the engine, allocating every SGA structure through alloc
// and emitting references through em. seed drives structural randomness
// (shared-pool tail access patterns).
func NewEngine(cfg Config, alloc Allocator, em Emitter, seed uint64) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	code := newServerCode(alloc)
	lt := newLatchTable(alloc, em, code, cfg.CBCLatches)
	e := &Engine{
		cfg:  cfg,
		em:   em,
		code: code,
		lt:   lt,
		rng:  sim.NewRNG(seed),
	}
	e.pool = newBufferPool(&cfg, alloc, em, code, lt)
	e.log = newRedoLog(alloc, em, code, lt)

	e.accountBal = balanceTable{}
	e.tellerBal = balanceTable{}
	e.branchBal = balanceTable{}

	e.branchBlock0 = 0
	e.tellerBlock0 = e.branchBlock0 + int32(cfg.BranchBlocks())
	e.accountBlock0 = e.tellerBlock0 + int32(cfg.TellerBlocks())
	e.historyBlock0 = e.accountBlock0 + int32(cfg.AccountBlocks())
	e.undoBlock0 = e.historyBlock0 + int32(cfg.HistoryWindowBlocks)

	e.histSlot = make([]histSlot, HistoryInsertSlots)
	for i := range e.histSlot {
		e.histSlot[i].block = e.historyBlock0 + int32(i)
	}
	e.histCursor = HistoryInsertSlots

	e.sharedPoolBase = alloc.Alloc("sga.shared_pool", uint64(cfg.SharedPoolBytes), KindShared)
	e.sharedPoolLines = cfg.SharedPoolBytes / memref.LineBytes
	zetan, ok := poolZetaSum(e.sharedPoolLines)
	if !ok {
		zetan = sim.Zeta(e.sharedPoolLines, poolTheta)
	}
	e.poolZipf = sim.NewZipfSum(e.sharedPoolLines, poolTheta, zetan)
	e.rowCacheBase = alloc.Alloc("sga.row_cache", 512<<10, KindShared)
	e.rowCacheLines = (512 << 10) / memref.LineBytes
	e.rcZipf = sim.NewZipf(e.rowCacheLines, 0.65)
	// Scatter the per-statement cursors (and their migratory stats lines)
	// across distinct pages of the shared pool so their NUMA homes spread,
	// as they would inside a real library cache.
	for s := 0; s < numStatements; s++ {
		e.cursorBase[s] = e.sharedPoolBase + uint64(s)*(17*memref.PageBytes+3*memref.LineBytes)
		e.cursorStats[s] = e.cursorBase[s] + (CursorHotLines+2)*memref.LineBytes
	}
	e.dictBase = alloc.Alloc("sga.dictionary", 64*(memref.PageBytes+memref.LineBytes), KindShared)

	e.idxBuckets = 1 << 12
	e.idxBucketBase = alloc.Alloc("sga.acct_index_buckets", uint64(e.idxBuckets)*memref.LineBytes, KindShared)
	e.idxEntryBase = alloc.Alloc("sga.acct_index_entries", uint64(cfg.Accounts())*16, KindShared)
	return e, nil
}

// MustNewEngine panics on configuration errors (experiment definitions are
// static, so errors there are programming mistakes).
func MustNewEngine(cfg Config, alloc Allocator, em Emitter, seed uint64) *Engine {
	e, err := NewEngine(cfg, alloc, em, seed)
	if err != nil {
		panic(err)
	}
	return e
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Code exposes the engine's code regions (the harness walks some of them for
// kernel-adjacent paths and reports footprints).
func (e *Engine) Code() *ServerCode { return e.code }

// Pool exposes the buffer pool for statistics and tests.
func (e *Engine) Pool() *BufferPool { return e.pool }

// Log exposes the redo log for the log-writer daemon and tests.
func (e *Engine) Log() *RedoLog { return e.log }

// Latches exposes the latch table for statistics.
func (e *Engine) Latches() *LatchTable { return e.lt }

// Prewarm positions the engine in steady state: every database block
// resident in the SGA, as in the paper's measurement methodology.
func (e *Engine) Prewarm() {
	e.pool.Prewarm(e.cfg.TotalBlocks())
}

// NewSession creates the execution context for one server process. pgaBase
// is the process's private memory region.
func (e *Engine) NewSession(id int, pgaBase uint64) *Session {
	s := &Session{ID: id, PGABase: pgaBase, UndoSeg: id % e.cfg.UndoSegments}
	// Stagger scan cursors (scenario mixes) so concurrent scanning sessions
	// cover different parts of the account table instead of convoying.
	s.scanBlock = int32(uint64(id) * 2654435761 % uint64(e.cfg.AccountBlocks()))
	return s
}

// dictAddr returns a dictionary-cache entry's line, page-strided so entry
// homes spread across nodes.
func (e *Engine) dictAddr(i int) uint64 {
	return e.dictBase + uint64(i)*(memref.PageBytes+memref.LineBytes)
}

// Block-number helpers.

func (e *Engine) branchBlock(branch int) int32 {
	return e.branchBlock0 + int32(branch/BranchesPerBlock)
}

func (e *Engine) tellerBlock(teller int) int32 {
	return e.tellerBlock0 + int32(teller/TellersPerBlock)
}

func (e *Engine) accountBlock(acct int) int32 {
	return e.accountBlock0 + int32(acct/AccountsPerBlock)
}

// rowAddr returns the address of a row's first line within its block. Row 0
// starts one line past the block header line.
func (e *Engine) rowAddr(block int32, slot, rowBytes int) uint64 {
	return e.pool.BlockAddr(block, memref.LineBytes+slot*rowBytes)
}

// TxnInput selects the rows of one transaction. The harness draws it with
// the process's RNG so engine state stays independent of selection
// randomness.
type TxnInput struct {
	Teller int
	Branch int // the teller's branch
	Acct   int
	Delta  int64
}

// DrawTxn picks a TPC-B transaction input: a uniform teller, its branch, and
// an account from the same branch with probability 85% (the TPC-A/B
// "remote branch" rule), uniform over all other branches otherwise.
func (e *Engine) DrawTxn(r *sim.RNG) TxnInput {
	return e.DrawTxnShaped(r, nil, 1)
}

// ExecTxn runs one TPC-B transaction body for sess up to and including the
// commit record, returning the LSN the session must wait on before the
// commit is durable (group commit through the log writer). The caller emits
// the surrounding client/kernel activity and blocks the process until the
// log writer acknowledges the LSN.
func (e *Engine) ExecTxn(sess *Session, in TxnInput) (commitLSN uint64) {
	e.Stats.Txns++
	sess.pinned = sess.pinned[:0]

	// Cursor open / soft parse for the transaction's statements.
	e.em.Code(e.code.SQLPrep)
	e.touchSharedPoolTail()
	// Session state in the PGA.
	e.em.Store(sess.PGABase, false)

	// UPDATE account SET balance = balance + :delta WHERE id = :acct
	e.execCursor(stmtUpdateAccount)
	ablock := e.accountBlock(in.Acct)
	e.indexLookup(in.Acct)
	af := e.updateRow(sess, ablock, in.Acct%AccountsPerBlock, 96)
	e.accountBal.add(in.Acct, in.Delta)
	_ = af

	// UPDATE teller (dictionary-resolved block, no index walk).
	e.execCursor(stmtUpdateTeller)
	e.em.Load(e.dictAddr(in.Teller%32), false)
	tblock := e.tellerBlock(in.Teller)
	e.updateRow(sess, tblock, in.Teller%TellersPerBlock, 128)
	e.tellerBal.add(in.Teller, in.Delta)

	// UPDATE branch: the classic TPC-B hot spot — 40 rows shared by every
	// processor.
	e.execCursor(stmtUpdateBranch)
	e.em.Load(e.dictAddr(32+in.Branch%16), false)
	bblock := e.branchBlock(in.Branch)
	e.updateRow(sess, bblock, in.Branch%BranchesPerBlock, 128)
	e.branchBal.add(in.Branch, in.Delta)

	// INSERT INTO history.
	e.execCursor(stmtInsertHistory)
	e.insertHistory(sess, in)
	e.deltaSum += in.Delta
	e.historyLen++

	// Commit: commit record into the redo stream.
	e.em.Code(e.code.TxnCommit)
	return e.log.Append(64, true, sess.ID)
}

// PostCommit performs the work after the commit is durable: unpinning
// buffers and cleaning up transaction state.
func (e *Engine) PostCommit(sess *Session) {
	e.em.Code(e.code.TxnCleanup)
	for _, f := range sess.pinned {
		e.pool.Unpin(f)
	}
	sess.pinned = sess.pinned[:0]
	e.em.Store(sess.PGABase+memref.LineBytes, false)
}

// execCursor emits the statement-execution driver: SQL engine code, the hot
// shared cursor lines (read-shared across all processors), the row-cache
// dictionary lookups every execution performs, a library-cache pin, and the
// cursor execution-statistics update (a migratory store).
func (e *Engine) execCursor(stmt int) {
	e.em.Code(e.code.SQLExec)
	// The shared cursor is a linked structure (Oracle's library-cache heaps
	// are pointer-chased), so the walk is a dependence chain.
	for i := 0; i < CursorHotLines; i++ {
		e.em.Load(e.cursorBase[stmt]+uint64(i)*memref.LineBytes, i > 0)
	}
	// Row-cache lookups: object/column/privilege entries, heavily skewed;
	// each is a bucket probe followed by a chained entry.
	for i := 0; i < 4; i++ {
		line := e.rcZipf.Next(e.rng)
		e.em.Load(e.rowCacheBase+uint64(line)*memref.LineBytes, i%2 == 1)
	}
	// Library cache pin (shared latch) + execution statistics.
	e.lt.Acquire(latchDML0 + stmt%numDML)
	e.em.Store(e.cursorStats[stmt], false)
	e.lt.Release(latchDML0 + stmt%numDML)
}

// touchSharedPoolTail models the library-cache lookups outside the hot
// cursors: a couple of skewed reads over the whole shared pool.
func (e *Engine) touchSharedPoolTail() {
	for i := 0; i < 2; i++ {
		line := e.poolZipf.Next(e.rng)
		e.em.Load(e.sharedPoolBase+uint64(line)*memref.LineBytes, i > 0)
	}
}

// indexLookup walks the account hash index: bucket line, then the entry line
// (address-dependent chain).
func (e *Engine) indexLookup(acct int) {
	e.em.Code(e.code.IdxLookup)
	h := uint64(acct) * 0x9e3779b97f4a7c15
	bucket := h % uint64(e.idxBuckets)
	e.em.Load(e.idxBucketBase+bucket*memref.LineBytes, false)
	e.em.Load(e.idxEntryBase+uint64(acct)*16, true)
}

// updateRow pins the block, updates the row (load + store), stamps the block
// header (ITL/SCN update), writes undo, and generates redo.
func (e *Engine) updateRow(sess *Session, block int32, slot, rowBytes int) int32 {
	f, missed := e.pool.Get(block)
	_ = missed // steady state: the pool holds every block
	sess.pinned = append(sess.pinned, f)

	e.em.Code(e.code.RowUpdate)
	row := e.rowAddr(block, slot, rowBytes)
	e.em.Load(row, true)
	e.em.Store(row, false)
	// Block header: transaction list / SCN stamp — a store to line 0 of the
	// block on every update, shared by all updaters of the block.
	e.em.Store(e.pool.BlockAddr(block, 0), false)
	e.pool.MarkDirty(f)

	e.writeUndo(sess)
	e.em.Code(e.code.RedoGen)
	e.log.Append(RedoPerUpdate, false, sess.ID)
	return f
}

// writeUndo appends the before-image to the session's rollback segment.
func (e *Engine) writeUndo(sess *Session) {
	e.em.Code(e.code.UndoWrite)
	block := e.undoBlock0 + int32(sess.UndoSeg*UndoBlocksPerSegment+sess.undoBlockIdx)
	f, _ := e.pool.Get(block)
	addr := e.pool.BlockAddr(block, memref.LineBytes+sess.undoOff)
	e.em.Store(addr, false)
	e.pool.MarkDirty(f)
	e.pool.Unpin(f)

	sess.undoOff += 160
	if sess.undoOff+160 > BlockBytes-memref.LineBytes {
		sess.undoOff = 0
		sess.undoBlockIdx = (sess.undoBlockIdx + 1) % UndoBlocksPerSegment
		e.Stats.UndoBlocks++
	}
	return
}

// insertHistory appends the history row at one of the rotating insert
// points.
func (e *Engine) insertHistory(sess *Session, in TxnInput) {
	e.em.Code(e.code.RowInsert)
	slot := &e.histSlot[sess.ID%len(e.histSlot)]
	const histRowBytes = 160
	addr := e.pool.BlockAddr(slot.block, memref.LineBytes+slot.rows*histRowBytes)
	f, _ := e.pool.Get(slot.block)
	sess.pinned = append(sess.pinned, f)
	e.em.Store(addr, false)
	e.em.Store(e.pool.BlockAddr(slot.block, 0), false)
	e.pool.MarkDirty(f)

	e.writeUndo(sess)
	e.em.Code(e.code.RedoGen)
	e.log.Append(RedoPerUpdate+32, false, sess.ID)

	slot.rows++
	if (slot.rows+1)*histRowBytes > BlockBytes-memref.LineBytes {
		// Block full: take the next window block (recycled in steady state)
		// and format it.
		slot.rows = 0
		slot.block = e.historyBlock0 + int32(e.histCursor%e.cfg.HistoryWindowBlocks)
		e.histCursor++
		e.Stats.HistoryBlocks++
		nf, _ := e.pool.Get(slot.block)
		e.em.Store(e.pool.BlockAddr(slot.block, 0), false)
		e.pool.MarkDirty(nf)
		e.pool.Unpin(nf)
	}
}

// --- Daemon operations -----------------------------------------------------

// LogWriterGather is the log writer's work loop body: it reads the unflushed
// redo out of the log buffer and returns the target LSN and byte count for
// the disk write (0 bytes means nothing to do). The caller models the I/O
// wait and then calls LogWriterComplete.
func (e *Engine) LogWriterGather() (target uint64, bytes int) {
	target = e.log.RequestedLSN()
	bytes = e.log.Gather(target)
	return target, bytes
}

// LogWriterComplete marks redo durable through target.
func (e *Engine) LogWriterComplete(target uint64) {
	e.log.MarkFlushed(target)
}

// DBWriterScan is the database writer's work loop body: it takes up to max
// dirty buffers, emits the header scan and cleaning stores, and returns how
// many blocks the subsequent disk write covers.
func (e *Engine) DBWriterScan(max int) int {
	e.em.Code(e.code.DbwrMain)
	frames := e.pool.PopDirty(max)
	for _, f := range frames {
		e.pool.Clean(f)
	}
	return len(frames)
}

// --- Invariants -------------------------------------------------------------

// CheckInvariants verifies the TPC-B consistency conditions on the
// functional state: the sum of account, teller, and branch balances must
// each equal the sum of all applied deltas, and the history length must
// equal the number of executed transactions.
func (e *Engine) CheckInvariants() error {
	aSum, tSum, bSum, _ := e.Balances()
	if aSum != e.deltaSum || tSum != e.deltaSum || bSum != e.deltaSum {
		return fmt.Errorf("tpcb: balance invariant violated: accounts=%d tellers=%d branches=%d want %d",
			aSum, tSum, bSum, e.deltaSum)
	}
	if e.historyLen != e.Stats.Txns {
		return fmt.Errorf("tpcb: history length %d != transactions %d", e.historyLen, e.Stats.Txns)
	}
	return e.pool.CheckConsistency()
}

// Balances returns the totals for external assertions.
func (e *Engine) Balances() (accounts, tellers, branches, deltas int64) {
	return e.accountBal.sum(), e.tellerBal.sum(), e.branchBal.sum(), e.deltaSum
}

// AccountBalance returns one account's balance (tests).
func (e *Engine) AccountBalance(acct int) int64 { return e.accountBal[acct] }

// HistoryLen returns the number of history rows ever inserted.
func (e *Engine) HistoryLen() uint64 { return e.historyLen }
