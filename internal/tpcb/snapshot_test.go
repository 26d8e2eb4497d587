package tpcb

import (
	"bytes"
	"strings"
	"testing"

	"oltpsim/internal/snapshot"
)

// section runs fill into a one-section stream and returns the decoder for
// it.
func section(t *testing.T, fill func(*snapshot.Encoder)) *snapshot.Decoder {
	t.Helper()
	w := snapshot.NewWriter()
	fill(w.Section("workload"))
	var buf bytes.Buffer
	if err := w.Emit(&buf); err != nil {
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
		if err := w.Emit(&buf); err != nil {
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
