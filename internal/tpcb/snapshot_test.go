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
	rows := int64(len(e.accountBal))
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
	nonzero := 0
	for _, v := range e.accountBal {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
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
