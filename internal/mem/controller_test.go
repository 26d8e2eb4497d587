package mem

import (
	"testing"

	"oltpsim/internal/memref"
)

func TestBankQueueing(t *testing.T) {
	c := NewController()
	const sameBank = Banks * memref.LineBytes
	// Two accesses to the same bank back to back: second queues.
	if d := c.Access(0, 100); d != 0 {
		t.Fatalf("first access delayed %d", d)
	}
	if d := c.Access(sameBank, 110); d != BankBusyCycles-10 {
		t.Fatalf("second access delayed %d, want %d", d, BankBusyCycles-10)
	}
	// Different bank: no delay.
	if d := c.Access(memref.LineBytes, 110); d != 0 {
		t.Fatalf("other-bank access delayed %d", d)
	}
}

func TestBankFreesUp(t *testing.T) {
	c := NewController()
	c.Access(0, 0)
	if d := c.Access(0, 1000); d != 0 {
		t.Fatalf("access after bank idle delayed %d", d)
	}
}
