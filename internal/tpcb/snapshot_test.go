package tpcb

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"oltpsim/internal/memref"
	"oltpsim/internal/snapshot"
)

// section runs fill into a one-section stream and returns the decoder for
// it.
func section(t *testing.T, fill func(*snapshot.Encoder)) *snapshot.Decoder {
	t.Helper()
	w := snapshot.NewWriter()
	fill(w.Section("workload"))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("workload")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestLoadRefusesBadBalanceTable: the sparse account table has one
// spelling, and LoadState refuses every other one before touching the
// engine.
func TestLoadRefusesBadBalanceTable(t *testing.T) {
	e := newTestEngine(t, NopEmitter{})
	rows := int64(e.cfg.Accounts())
	// table writes a saved table: its length, its nonzero count, then the
	// (row, balance) pairs as given.
	table := func(n, nonzero int64, pairs ...int64) func(*snapshot.Encoder) {
		return func(enc *snapshot.Encoder) {
			enc.I64(n)
			enc.I64(nonzero)
			for _, v := range pairs {
				enc.I64(v)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		fill  func(*snapshot.Encoder)
		error string
	}{
		{"wrong length", table(rows-1, 0), "rows, want"},
		{"unsorted", table(rows, 2, 9, 5, 3, 7), "out of order or repeated"},
		{"duplicate", table(rows, 2, 9, 5, 9, 7), "out of order or repeated"},
		{"row past the end", table(rows, 1, rows, 5), "out of range"},
		{"negative row", table(rows, 1, -1, 5), "out of range"},
		{"zero balance", table(rows, 2, 3, 5, 9, 0), "zero balance"},
		{"count beyond the input", table(rows, 3, 3, 5, 9, 7), "input holds at most 2"},
		{"negative count", table(rows, -1), "nonzero balances"},
		{"count that wraps", table(rows, 1<<60+1, 3, 5), "nonzero balances"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := e.LoadState(section(t, tc.fill))
			if err == nil || !strings.Contains(err.Error(), tc.error) {
				t.Fatalf("LoadState error %v, want one containing %q", err, tc.error)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Errorf("refused load touched the engine: %v", err)
			}
		})
	}
}

// TestBalanceTablesRoundTrip: an engine with nonzero balances saves, loads
// into a fresh engine and saves again to the same bytes, and the loaded
// engine keeps the balance invariants and totals.
func TestBalanceTablesRoundTrip(t *testing.T) {
	e := newTestEngine(t, NopEmitter{})
	runTxns(e, 500, 7)
	if len(e.accountBal) == 0 {
		t.Fatal("500 transactions left every account balance zero")
	}
	save := func(e *Engine) []byte {
		w := snapshot.NewWriter()
		e.SaveState(w.Section("workload"))
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := save(e)

	loaded := newTestEngine(t, NopEmitter{})
	runTxns(loaded, 40, 3) // stale balances the load must clear
	r, err := snapshot.NewReader(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("workload")
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.LoadState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	a, tl, b, deltas := e.Balances()
	if la, ltl, lb, ld := loaded.Balances(); la != a || ltl != tl || lb != b || ld != deltas {
		t.Errorf("loaded balances %d/%d/%d/%d, saved %d/%d/%d/%d", la, ltl, lb, ld, a, tl, b, deltas)
	}
	if again := save(loaded); !bytes.Equal(again, first) {
		t.Errorf("save→load→save changed the bytes (%d vs %d)", len(again), len(first))
	}
}

// poolState writes a saved pool of n frames whose frame 0 holds block b
// and whose other frames are free; free list, dirty queue and counters
// are empty.
func poolState(n int, b int64) func(*snapshot.Encoder) {
	return func(enc *snapshot.Encoder) {
		enc.Int(n)
		for i := 0; i < n; i++ {
			block := int64(-1)
			if i == 0 {
				block = b
			}
			enc.I64(block)
			enc.Bool(false)
			enc.Bool(false)
			enc.U64(0)
		}
		enc.I64s(nil)
		enc.U64(0)
		enc.I64s(nil)
		for i := 0; i < 4; i++ {
			enc.U64(0)
		}
	}
}

// TestPoolLoadRefusesBlockPastDatabase: a saved frame may hold only -1 or
// a block of the database, checked on the saved 64-bit value, so a block
// that would narrow into range is refused too.
func TestPoolLoadRefusesBlockPastDatabase(t *testing.T) {
	p, cfg := newTestPool(8)
	total := int64(cfg.TotalBlocks())
	for _, tc := range []struct {
		name  string
		block int64
		error string
	}{
		{"last block", total - 1, ""},
		{"free", -1, ""},
		{"one past the end", total, "outside -1..135"},
		{"past the end", total + 5, "outside -1..135"},
		{"narrows into range", 1<<32 + 5, "outside -1..135"},
		{"below free", -2, "outside -1..135"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := p.LoadState(section(t, poolState(8, tc.block)))
			if tc.error == "" {
				if err != nil {
					t.Fatalf("LoadState refused block %d: %v", tc.block, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.error) {
				t.Fatalf("LoadState error %v, want one containing %q", err, tc.error)
			}
		})
	}
}

// withHistoryBlock returns e's saved state with history slot 0's block
// replaced. e has run no transactions, so its balance tables are empty and
// the copy can walk the fields before the slots by their layout.
func withHistoryBlock(t *testing.T, e *Engine, block int64) func(*snapshot.Encoder) {
	saved := section(t, e.SaveState)
	return func(enc *snapshot.Encoder) {
		for range 3 { // account, teller and branch tables: rows, nonzero count 0
			enc.I64(saved.I64())
			enc.I64(saved.I64())
		}
		enc.U64(saved.U64()) // historyLen
		enc.I64(saved.I64()) // deltaSum
		n := saved.Int()
		enc.Int(n)
		for i := 0; i < n; i++ {
			b, rows := saved.I64(), saved.I64()
			if i == 0 {
				b = block
			}
			enc.I64(b)
			enc.I64(rows)
		}
		for saved.Remaining() > 0 {
			enc.U8(saved.U8())
		}
		if err := saved.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadRefusesHistoryBlockOutsideWindow: a history slot's block is
// range-checked as the int64 it was saved as. A block 2^32 past the
// window's first would narrow to the first and load as it; it and a
// negative block are refused by slot, and the window's first and last
// blocks load.
func TestLoadRefusesHistoryBlockOutsideWindow(t *testing.T) {
	e := newTestEngine(t, NopEmitter{})
	first := int64(e.historyBlock0)
	last := first + int64(e.cfg.HistoryWindowBlocks) - 1
	for _, block := range []int64{1<<32 + first, -1, last + 1} {
		err := newTestEngine(t, NopEmitter{}).LoadState(section(t, withHistoryBlock(t, e, block)))
		if err == nil || !strings.Contains(err.Error(), "history slot 0") {
			t.Errorf("block %d: LoadState error %v, want one naming history slot 0", block, err)
		}
	}
	for _, block := range []int64{first, last} {
		loaded := newTestEngine(t, NopEmitter{})
		if err := loaded.LoadState(section(t, withHistoryBlock(t, e, block))); err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		if got := int64(loaded.histSlot[0].block); got != block {
			t.Errorf("block %d loaded as %d", block, got)
		}
	}
}

// TestSessionLoadRefusesOutOfRangeCursors: an undo cursor outside the
// segment's window, a pinned frame outside the buffer pool or a scan
// cursor outside the account blocks is refused before it narrows to
// int32, where 1<<40 would have become frame 0 and 2^31 a negative cursor.
// The ends of every range load; the scan cursor's upper end is
// AccountBlocks() itself, what a scan that just read the last block saves.
func TestSessionLoadRefusesOutOfRangeCursors(t *testing.T) {
	e := newTestEngine(t, NopEmitter{})
	frames, blocks := e.cfg.BufferFrames, e.cfg.AccountBlocks()
	lastOff := int64(BlockBytes - memref.LineBytes - UndoRecordBytes)
	state := func(undo [2]int64, pinned []int64, scan int64) func(*snapshot.Encoder) {
		return func(enc *snapshot.Encoder) {
			enc.I64(undo[0]) // undo block index
			enc.I64(undo[1]) // undo offset
			enc.I64s(pinned)
			enc.I64(scan)
		}
	}
	for _, tc := range []struct {
		name   string
		undo   [2]int64
		pinned []int64
		scan   int64
		error  string
	}{
		{"frame beyond 32 bits", [2]int64{}, []int64{3, 1 << 40}, 0, "pinned frame 1 is 1099511627776"},
		{"negative frame", [2]int64{}, []int64{-7}, 0, "pinned frame 0 is -7"},
		{"frame past the pool", [2]int64{}, []int64{int64(frames)}, 0, "pinned frame 0"},
		{"cursor beyond 31 bits", [2]int64{}, nil, 1 << 31, "scan cursor 2147483648"},
		{"cursor past the last block", [2]int64{}, nil, int64(blocks) + 1, "scan cursor"},
		{"negative cursor", [2]int64{}, nil, -1, "scan cursor -1"},
		// writeUndo narrows the block to int32: block 2^40 of a segment
		// would write the first segment's first block.
		{"undo block beyond 32 bits", [2]int64{1 << 40, 0}, nil, 0, "undo cursor 1099511627776/0"},
		{"undo block past the segment", [2]int64{UndoBlocksPerSegment, 0}, nil, 0, "undo cursor 4/0"},
		{"negative undo block", [2]int64{-1, 0}, nil, 0, "undo cursor -1/0"},
		{"undo record past the block", [2]int64{0, lastOff + 1}, nil, 0, "undo cursor 0/"},
		{"negative undo offset", [2]int64{0, -160}, nil, 0, "undo cursor 0/-160"},
		{"undo offset that wraps", [2]int64{0, math.MaxInt64 - 100}, nil, 0, "undo cursor 0/9223372036854775707"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := e.NewSession(0, 0)
			err := s.LoadState(section(t, state(tc.undo, tc.pinned, tc.scan)), frames, blocks)
			if err == nil || !strings.Contains(err.Error(), tc.error) {
				t.Fatalf("LoadState error %v, want one containing %q", err, tc.error)
			}
		})
	}
	s := e.NewSession(0, 0)
	last := [2]int64{UndoBlocksPerSegment - 1, lastOff}
	if err := s.LoadState(section(t, state(last, []int64{0, int64(frames) - 1}, int64(blocks))), frames, blocks); err != nil {
		t.Fatal(err)
	}
	if s.undoBlockIdx != UndoBlocksPerSegment-1 || int64(s.undoOff) != lastOff ||
		!slices.Equal(s.pinned, []int32{0, int32(frames) - 1}) || s.scanBlock != int32(blocks) {
		t.Fatalf("loaded undo cursor %d/%d, pinned %v, scan cursor %d", s.undoBlockIdx, s.undoOff, s.pinned, s.scanBlock)
	}
}
