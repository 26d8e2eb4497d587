package memref

import (
	"testing"
	"testing/quick"
)

func TestLineOf(t *testing.T) {
	cases := []struct{ addr, want uint64 }{
		{0, 0},
		{63, 0},
		{64, 64},
		{65, 64},
		{8191, 8128},
		{1<<40 + 130, 1<<40 + 128},
	}
	for _, c := range cases {
		if got := LineOf(c.addr); got != c.want {
			t.Errorf("LineOf(%#x) = %#x, want %#x", c.addr, got, c.want)
		}
	}
}

func TestRefLineMatchesLineOf(t *testing.T) {
	f := func(addr uint64) bool {
		addr &= MaxAddr
		r := New(addr, IFetch, false, false, 0)
		return r.Line() == LineOf(addr) && r.Line()%LineBytes == 0 && r.Line() <= addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNewRoundTrip: every field comes back through its accessor unchanged,
// at the limits of its range and at random values in between, whatever the
// other fields hold.
func TestNewRoundTrip(t *testing.T) {
	check := func(addr uint64, kind Kind, kernel, depPrev bool, instrs int) bool {
		r := New(addr, kind, kernel, depPrev, instrs)
		return r.Addr() == addr && r.Kind() == kind && r.Kernel() == kernel &&
			r.DepPrev() == depPrev && r.Instrs() == instrs && r.Line() == LineOf(addr)
	}
	for _, addr := range []uint64{0, 1, LineBytes - 1, LineBytes, MaxAddr - 1, MaxAddr} {
		for _, kind := range []Kind{IFetch, Load, Store} {
			for _, instrs := range []int{0, 1, 16, MaxInstrs - 1, MaxInstrs} {
				for flags := 0; flags < 4; flags++ {
					kernel, depPrev := flags&1 != 0, flags&2 != 0
					if !check(addr, kind, kernel, depPrev, instrs) {
						t.Fatalf("New(%#x, %v, %t, %t, %d) does not round-trip: %#x",
							addr, kind, kernel, depPrev, instrs, New(addr, kind, kernel, depPrev, instrs).w)
					}
				}
			}
		}
	}
	f := func(addr uint64, kind uint8, kernel, depPrev bool, instrs uint16) bool {
		return check(addr&MaxAddr, Kind(kind%3), kernel, depPrev, int(instrs)&MaxInstrs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if (Ref{}) != New(0, IFetch, false, false, 0) {
		t.Fatal("the zero Ref is not an instruction fetch of address 0")
	}
}

// TestNewPanicsBeyondRange: a field one past its limit, in either
// direction, panics instead of spilling into its neighbours.
func TestNewPanicsBeyondRange(t *testing.T) {
	cases := []struct {
		name   string
		addr   uint64
		kind   Kind
		instrs int
	}{
		{"address beyond 40 bits", MaxAddr + 1, Load, 0},
		{"address beyond 48 bits", 1 << 48, Load, 0},
		{"largest address", ^uint64(0), Load, 0},
		{"unknown kind", 0, Store + 1, 0},
		{"largest kind", 0, Kind(255), 0},
		{"instruction count beyond 12 bits", 0, IFetch, MaxInstrs + 1},
		{"negative instruction count", 0, IFetch, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%#x, %d, false, false, %d) did not panic", c.addr, c.kind, c.instrs)
				}
			}()
			New(c.addr, c.kind, false, false, c.instrs)
		})
	}
}

// TestWordRoundTrip: every Ref New builds comes back from its Word through
// FromWord unchanged, and FromWord refuses a word with a bit among bits
// 40-47 or of kind 3, which New never produces.
func TestWordRoundTrip(t *testing.T) {
	f := func(addr uint64, kind uint8, kernel, depPrev bool, instrs uint16) bool {
		r := New(addr&MaxAddr, Kind(kind%3), kernel, depPrev, int(instrs)&MaxInstrs)
		got, err := FromWord(r.Word())
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Ref{{}, New(MaxAddr, Store, true, true, MaxInstrs)} {
		if got, err := FromWord(r.Word()); err != nil || got != r {
			t.Fatalf("FromWord(%#x) = %#x, %v", r.Word(), got.w, err)
		}
	}
	for _, c := range []struct {
		w    uint64
		want string
	}{
		{1 << 40, "memref: word 0x10000000000 sets bits 40-47, beyond the 40-bit address"},
		{1<<47 | 0x40, "memref: word 0x800000000040 sets bits 40-47, beyond the 40-bit address"},
		{3 << 48, "memref: word 0x3000000000000 has unknown kind 3"},
	} {
		if r, err := FromWord(c.w); err == nil || err.Error() != c.want {
			t.Errorf("FromWord(%#x) = %#x, %v; want error %q", c.w, r.w, err, c.want)
		}
	}
}

func TestPageOf(t *testing.T) {
	if PageOf(0) != 0 || PageOf(8191) != 0 || PageOf(8192) != 1 {
		t.Fatal("PageOf boundaries wrong")
	}
}

func TestKindString(t *testing.T) {
	if IFetch.String() != "ifetch" || Load.String() != "load" || Store.String() != "store" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown Kind string wrong")
	}
}

func TestConstantsConsistent(t *testing.T) {
	if 1<<LineShift != LineBytes {
		t.Fatalf("LineShift %d inconsistent with LineBytes %d", LineShift, LineBytes)
	}
	if 1<<PageShift != PageBytes {
		t.Fatalf("PageShift %d inconsistent with PageBytes %d", PageShift, PageBytes)
	}
}
