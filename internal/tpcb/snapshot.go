package tpcb

import (
	"fmt"
	"slices"

	"oltpsim/internal/memref"
	"oltpsim/internal/snapshot"
)

// SaveState writes the engine's functional and structural state: table
// balances, history/undo cursors, the structural RNG, code-walk cursors,
// latch/pool/log state, and the workload-shape counters. Addresses, Zipf
// constants, and layout fields are derived from the configuration at
// construction and are not state.
func (e *Engine) SaveState(enc *snapshot.Encoder) {
	saveBalances(enc, e.cfg.Accounts(), e.accountBal)
	saveBalances(enc, e.cfg.Tellers(), e.tellerBal)
	saveBalances(enc, e.cfg.Branches, e.branchBal)
	enc.U64(e.historyLen)
	enc.I64(e.deltaSum)
	enc.Int(len(e.histSlot))
	for _, s := range e.histSlot {
		enc.I64(int64(s.block))
		enc.Int(s.rows)
	}
	enc.Int(e.histCursor)
	e.rng.SaveState(enc)
	enc.U64(e.Stats.Txns)
	enc.U64(e.Stats.HistoryBlocks)
	enc.U64(e.Stats.UndoBlocks)
	enc.Int(len(e.code.All))
	for _, f := range e.code.All {
		enc.Int(f.pos)
	}
	enc.U64(e.lt.Acquires)
	e.pool.SaveState(enc)
	e.log.SaveState(enc)
}

// saveBalances writes a balance table of the given number of rows
// sparsely: its length, its nonzero count, then the (row, balance) pairs in
// ascending row order.
func saveBalances(e *snapshot.Encoder, rows int, t balanceTable) {
	keys := make([]int, 0, len(t))
	for row := range t {
		keys = append(keys, row)
	}
	slices.Sort(keys)
	e.Grow(16 + 16*len(keys))
	e.Int(rows)
	e.Int(len(keys))
	for _, row := range keys {
		e.Int(row)
		e.I64(t[row])
	}
}

// loadBalances reads what saveBalances wrote for a table of the given
// number of rows. The spelling is canonical: it refuses another length, a
// row out of range, out of order or repeated, a zero balance, and a
// nonzero count the remaining input cannot back.
func loadBalances(d *snapshot.Decoder, name string, rows int) (balanceTable, error) {
	n := d.Int()
	nonzero := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n != rows {
		return nil, fmt.Errorf("tpcb: snapshot %s table has %d rows, want %d", name, n, rows)
	}
	if nonzero < 0 || nonzero > d.Remaining()/16 {
		return nil, fmt.Errorf("tpcb: snapshot %s table claims %d nonzero balances, the input holds at most %d", name, nonzero, d.Remaining()/16)
	}
	t := make(balanceTable, nonzero)
	prev := -1
	for k := 0; k < nonzero; k++ {
		row, val := d.Int(), d.I64()
		if err := d.Err(); err != nil {
			return nil, err
		}
		switch {
		case row < 0 || row >= rows:
			return nil, fmt.Errorf("tpcb: snapshot %s row %d out of range 0..%d", name, row, rows-1)
		case row <= prev:
			return nil, fmt.Errorf("tpcb: snapshot %s row %d is out of order or repeated", name, row)
		case val == 0:
			return nil, fmt.Errorf("tpcb: snapshot %s row %d saved with a zero balance", name, row)
		}
		t[row] = val
		prev = row
	}
	return t, nil
}

// LoadState restores an engine built from the identical configuration.
func (e *Engine) LoadState(d *snapshot.Decoder) error {
	accounts, err := loadBalances(d, "account", e.cfg.Accounts())
	if err != nil {
		return err
	}
	tellers, err := loadBalances(d, "teller", e.cfg.Tellers())
	if err != nil {
		return err
	}
	branches, err := loadBalances(d, "branch", e.cfg.Branches)
	if err != nil {
		return err
	}
	historyLen := d.U64()
	deltaSum := d.I64()
	nSlots := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if nSlots != len(e.histSlot) {
		return fmt.Errorf("tpcb: snapshot has %d history slots, want %d", nSlots, len(e.histSlot))
	}
	// Each block is range-checked as the int64 it was saved as, before it
	// narrows to the slot's int32.
	slots := make([]histSlot, nSlots)
	first := int64(e.historyBlock0)
	end := first + int64(e.cfg.HistoryWindowBlocks)
	for i := range slots {
		block, rows := d.I64(), d.Int()
		if d.Err() == nil && (block < first || block >= end || rows < 0) {
			return fmt.Errorf("tpcb: history slot %d (block %d, rows %d) out of range: blocks %d..%d",
				i, block, rows, first, end-1)
		}
		slots[i] = histSlot{block: int32(block), rows: rows}
	}
	histCursor := d.Int()
	e.rng.LoadState(d)
	stats := EngineStats{Txns: d.U64(), HistoryBlocks: d.U64(), UndoBlocks: d.U64()}
	nFns := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if nFns != len(e.code.All) {
		return fmt.Errorf("tpcb: snapshot has %d code functions, want %d", nFns, len(e.code.All))
	}
	poss := make([]int, nFns)
	for i := range poss {
		poss[i] = d.Int()
	}
	acquires := d.U64()
	if d.Err() != nil {
		return d.Err()
	}
	for i, pos := range poss {
		if pos < 0 || pos >= e.code.All[i].SizeLines {
			return fmt.Errorf("tpcb: code cursor %d for %s out of range", pos, e.code.All[i].Name)
		}
	}
	if err := e.pool.LoadState(d); err != nil {
		return err
	}
	if err := e.log.LoadState(d); err != nil {
		return err
	}
	e.accountBal = accounts
	e.tellerBal = tellers
	e.branchBal = branches
	e.historyLen = historyLen
	e.deltaSum = deltaSum
	copy(e.histSlot, slots)
	e.histCursor = histCursor
	e.Stats = stats
	for i, f := range e.code.All {
		f.pos = poss[i]
	}
	e.lt.Acquires = acquires
	return nil
}

// SaveState writes the persistent walk cursor; everything else in a CodeFn
// is fixed at construction.
func (f *CodeFn) SaveState(e *snapshot.Encoder) { e.Int(f.pos) }

// LoadState restores the walk cursor.
func (f *CodeFn) LoadState(d *snapshot.Decoder) error {
	pos := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if pos < 0 || pos >= f.SizeLines {
		return fmt.Errorf("tpcb: code cursor %d for %s out of range", pos, f.Name)
	}
	f.pos = pos
	return nil
}

// SaveState writes the per-session transaction cursors. ID, PGABase, and
// UndoSeg are fixed at construction.
func (s *Session) SaveState(e *snapshot.Encoder) {
	e.Int(s.undoBlockIdx)
	e.Int(s.undoOff)
	saveInt32s(e, s.pinned)
	e.I64(int64(s.scanBlock))
}

// LoadState restores the session cursors of a session whose engine has
// frames buffer frames and accountBlocks account blocks. Each cursor is
// range-checked as it was saved, before writeUndo, PostCommit or ExecScan
// narrows it to an int32 block or frame: the undo cursor must name a
// record inside the segment's block window, each pinned frame must lie in
// [0, frames), and the scan cursor in [0, accountBlocks] (a scan that has
// just read the last block saves accountBlocks; the next scan wraps it
// to 0).
func (s *Session) LoadState(d *snapshot.Decoder, frames, accountBlocks int) error {
	idx := d.Int()
	off := d.Int()
	pinned := d.I64s()
	scanBlock := d.I64()
	if err := d.Err(); err != nil {
		return err
	}
	const lastUndoOff = BlockBytes - memref.LineBytes - UndoRecordBytes
	if idx < 0 || idx >= UndoBlocksPerSegment || off < 0 || off > lastUndoOff {
		return fmt.Errorf("tpcb: session %d undo cursor %d/%d outside blocks 0..%d, offsets 0..%d",
			s.ID, idx, off, UndoBlocksPerSegment-1, lastUndoOff)
	}
	for i, f := range pinned {
		if f < 0 || f >= int64(frames) {
			return fmt.Errorf("tpcb: session %d pinned frame %d is %d, outside 0..%d", s.ID, i, f, frames-1)
		}
	}
	if scanBlock < 0 || scanBlock > int64(accountBlocks) {
		return fmt.Errorf("tpcb: session %d scan cursor %d outside 0..%d", s.ID, scanBlock, accountBlocks)
	}
	s.undoBlockIdx = idx
	s.undoOff = off
	s.pinned = s.pinned[:0]
	for _, f := range pinned {
		s.pinned = append(s.pinned, int32(f))
	}
	s.scanBlock = int32(scanBlock)
	return nil
}

// SaveState writes the buffer pool's frame table, free list (a LIFO whose
// order is architectural), LRU clock, dirty queue, and counters. The
// block-to-frame map is derived from the frame table and rebuilt on load.
func (p *BufferPool) SaveState(e *snapshot.Encoder) {
	e.Grow(8 + savedFrameBytes*len(p.frames))
	e.Int(len(p.frames))
	for _, fr := range p.frames {
		e.I64(int64(fr.block))
		e.Bool(fr.dirty)
		e.Bool(fr.inDirty)
		e.U64(fr.lastUse)
	}
	saveInt32s(e, p.free)
	e.U64(p.clock)
	saveInt32s(e, p.dirtyQueue)
	e.U64(p.Stats.Gets)
	e.U64(p.Stats.Misses)
	e.U64(p.Stats.Evictions)
	e.U64(p.Stats.Cleaned)
}

// savedFrameBytes is the encoded size of one frame: block, dirty, queued
// for the database writer, and last use.
const savedFrameBytes = 8 + 1 + 1 + 8

// LoadState restores a pool of identical frame count and rebuilds the
// block-to-frame index.
func (p *BufferPool) LoadState(d *snapshot.Decoder) error {
	n := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(p.frames) {
		return fmt.Errorf("tpcb: snapshot has %d frames, want %d", n, len(p.frames))
	}
	blocks := int64(len(p.blockToFrame))
	frames := make([]frame, n)
	for i := range frames {
		b := d.I64()
		if b < -1 || b >= blocks {
			return fmt.Errorf("tpcb: frame %d holds block %d, outside -1..%d", i, b, blocks-1)
		}
		frames[i] = frame{
			block:   int32(b),
			dirty:   d.Bool(),
			inDirty: d.Bool(),
			lastUse: d.U64(),
		}
	}
	free := d.I64s()
	clock := d.U64()
	dirtyQueue := d.I64s()
	stats := PoolStats{Gets: d.U64(), Misses: d.U64(), Evictions: d.U64(), Cleaned: d.U64()}
	if err := d.Err(); err != nil {
		return err
	}
	b2f := make([]int32, blocks)
	for b := range b2f {
		b2f[b] = -1
	}
	for i, fr := range frames {
		if fr.block >= 0 {
			if b2f[fr.block] >= 0 {
				return fmt.Errorf("tpcb: block %d resident in two frames", fr.block)
			}
			b2f[fr.block] = int32(i)
		}
	}
	for _, f := range free {
		if f < 0 || f >= int64(n) || frames[f].block != -1 {
			return fmt.Errorf("tpcb: free list entry %d invalid", f)
		}
	}
	for _, f := range dirtyQueue {
		if f < 0 || f >= int64(n) {
			return fmt.Errorf("tpcb: dirty queue entry %d out of range", f)
		}
	}
	copy(p.frames, frames)
	p.free = p.free[:0]
	for _, f := range free {
		p.free = append(p.free, int32(f))
	}
	p.clock = clock
	p.dirtyQueue = p.dirtyQueue[:0]
	for _, f := range dirtyQueue {
		p.dirtyQueue = append(p.dirtyQueue, int32(f))
	}
	p.blockToFrame = b2f
	p.Stats = stats
	return p.CheckConsistency()
}

// SaveState writes the redo log's LSN horizon and counters.
func (l *RedoLog) SaveState(e *snapshot.Encoder) {
	e.U64(l.nextLSN)
	e.U64(l.requestedLSN)
	e.U64(l.flushedLSN)
	e.U64(l.Stats.BytesWritten)
	e.U64(l.Stats.Gathers)
	e.U64(l.Stats.Overruns)
}

// LoadState restores the log position.
func (l *RedoLog) LoadState(d *snapshot.Decoder) error {
	next := d.U64()
	requested := d.U64()
	flushed := d.U64()
	stats := LogStats{BytesWritten: d.U64(), Gathers: d.U64(), Overruns: d.U64()}
	if err := d.Err(); err != nil {
		return err
	}
	if requested > next || flushed > next {
		return fmt.Errorf("tpcb: log LSNs out of order (next %d, requested %d, flushed %d)", next, requested, flushed)
	}
	l.nextLSN = next
	l.requestedLSN = requested
	l.flushedLSN = flushed
	l.Stats = stats
	return nil
}

// saveInt32s writes vs as the length-prefixed 64-bit integers I64s writes,
// without widening them into a slice first.
func saveInt32s(e *snapshot.Encoder, vs []int32) {
	e.Grow(8 + 8*len(vs))
	e.Int(len(vs))
	for _, v := range vs {
		e.I64(int64(v))
	}
}
