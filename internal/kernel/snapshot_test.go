package kernel

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"oltpsim/internal/memref"
	"oltpsim/internal/snapshot"
)

// rawRef is one reference as encodeRefs lays it out, with fields wide
// enough to hold values no memref.Ref can.
type rawRef struct {
	addr    uint64
	kind    uint8
	kernel  bool
	depPrev bool
	instrs  uint32
}

// decoderFor returns a decoder over the section fill writes.
func decoderFor(t *testing.T, fill func(e *snapshot.Encoder)) *snapshot.Decoder {
	t.Helper()
	w := snapshot.NewWriter()
	fill(w.Section("refs"))
	var buf bytes.Buffer
	if err := w.Emit(&buf); err != nil {
		t.Fatal(err)
	}
	rd, err := snapshot.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rd.Section("refs")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// refStream encodes refs field by field, as encodeRefs does.
func refStream(t *testing.T, refs []rawRef) *snapshot.Decoder {
	return decoderFor(t, func(e *snapshot.Encoder) {
		e.Int(len(refs))
		for _, r := range refs {
			e.U64(r.addr)
			e.U8(r.kind)
			e.Bool(r.kernel)
			e.Bool(r.depPrev)
			e.U32(r.instrs)
		}
	})
}

// TestRefCodecRoundTrip: references at the limits of every field survive
// encodeRefs and decodeRefs unchanged.
func TestRefCodecRoundTrip(t *testing.T) {
	want := []memref.Ref{
		memref.New(0, memref.IFetch, false, false, 0),
		memref.New(memref.MaxAddr, memref.IFetch, true, false, memref.MaxInstrs),
		memref.New(0xdead0040, memref.Load, false, true, 0),
		memref.New(memref.MaxAddr-63, memref.Store, true, true, 16),
	}
	got, err := decodeRefs(decoderFor(t, func(e *snapshot.Encoder) { encodeRefs(e, want) }))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
}

// TestDecodeRefsRefusesImpossibleRefs: a saved reference that no generator
// can produce is refused by index before any machine runs it, rather than
// being run as a reference no counter sees (an unknown kind) or with a
// truncated instruction count.
func TestDecodeRefsRefusesImpossibleRefs(t *testing.T) {
	good := rawRef{addr: 0x4000, kind: uint8(memref.IFetch), instrs: 16}
	cases := []struct {
		name string
		bad  rawRef
		want string
	}{
		{"unknown kind", rawRef{addr: 0x4000, kind: 3}, "kernel: reference 1 has unknown kind 3"},
		{"address beyond 48 bits", rawRef{addr: memref.MaxAddr + 1, kind: uint8(memref.Load)},
			"kernel: reference 1 address 0x1000000000000 exceeds 0xffffffffffff"},
		{"instruction count beyond 12 bits", rawRef{addr: 0x4000, instrs: memref.MaxInstrs + 1},
			"kernel: reference 1 instruction count 4096 exceeds 4095"},
		{"instruction count beyond 16 bits", rawRef{addr: 0x4000, instrs: 1<<16 + 5},
			"kernel: reference 1 instruction count 65541 exceeds 4095"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			refs, err := decodeRefs(refStream(t, []rawRef{good, c.bad}))
			if err == nil || err.Error() != c.want {
				t.Fatalf("decodeRefs = %v, %v; want error %q", refs, err, c.want)
			}
		})
	}
	// The same stream with the good reference alone is accepted.
	refs, err := decodeRefs(refStream(t, []rawRef{good}))
	if err != nil || len(refs) != 1 || refs[0] != memref.New(0x4000, memref.IFetch, false, false, 16) {
		t.Fatalf("decodeRefs(good) = %v, %v", refs, err)
	}
}

// TestSchedulerSnapshotKeepsDrain: a scheduler saved mid-segment with a
// drain armed restores into one that calls Drained at the same CPU time as
// the unsaved scheduler. Once the drain has run, the consumed directive
// keeps its flag, and a checkpoint taken then still loads.
func TestSchedulerSnapshotKeepsDrain(t *testing.T) {
	segs := []scriptSeg{{refs: 6, dir: Directive{Kind: Block}}, {refs: 2, dir: Directive{Kind: Exit}}}
	orig := &scriptGen{segments: segs}
	s := NewScheduler(1, 100, nil)
	p := s.Spawn(0, "p", orig)
	n, _, _, now := drain(s, 0, 10, 3)
	if n != 3 || !p.hasPending || !p.pending.Drain {
		t.Fatalf("after %d refs: pending %t, drain %t; want a pending drain", n, p.hasPending, p.pending.Drain)
	}

	restore := func(s *Scheduler, pos int) (*Scheduler, *scriptGen) {
		t.Helper()
		g := &scriptGen{segments: segs, pos: pos}
		r := NewScheduler(1, 100, nil)
		r.Spawn(0, "p", g)
		if err := r.LoadState(decoderFor(t, s.SaveState)); err != nil {
			t.Fatal(err)
		}
		return r, g
	}
	r, rg := restore(s, orig.pos)
	_, st, _, end := drain(s, 0, now, 100)
	_, rst, _, rend := drain(r, 0, now, 100)
	if st != StatusIdle || rst != st || rend != end {
		t.Fatalf("unsaved ends %v at %d, restored %v at %d", st, end, rst, rend)
	}
	if len(orig.drains) != 1 || !reflect.DeepEqual(rg.drains, orig.drains) {
		t.Fatalf("restored drained at %v, unsaved at %v", rg.drains, orig.drains)
	}
	if p.hasPending || !p.pending.Drain {
		t.Fatalf("after the drain: pending %t, drain %t; want a consumed directive with its flag", p.hasPending, p.pending.Drain)
	}
	if _, g := restore(s, orig.pos); len(g.drains) != 0 {
		t.Fatalf("loading a consumed directive ran Drained at %v", g.drains)
	}
}

// schedStream encodes a one-CPU scheduler with one ready process, field by
// field as SaveState lays it out, with the given pending and drain bytes.
func schedStream(t *testing.T, hasPending bool, drain uint8) *snapshot.Decoder {
	return decoderFor(t, func(e *snapshot.Encoder) {
		e.Int(1) // CPUs
		e.Int(1) // processes on CPU 0
		e.U8(uint8(stateReady))
		e.U64(0) // wake time
		encodeRefs(e, nil)
		e.Int(0) // position
		e.Bool(hasPending)
		e.U8(uint8(Block))
		e.U64(0) // Until
		e.U64(0) // Dur
		e.U8(drain)
		e.Int(0)  // slice used
		e.Int(-1) // no current process
		encodeRefs(e, nil)
		e.Int(0) // switch position
		e.U64(0) // context switches
		e.U64(0) // preemptions
	})
}

// TestSchedulerLoadRefusesBadDrain: a drain flag without a pending
// directive, or a drain byte that is not a bool, is refused.
func TestSchedulerLoadRefusesBadDrain(t *testing.T) {
	load := func(d *snapshot.Decoder) error {
		s := NewScheduler(1, 100, nil)
		s.Spawn(0, "p", &scriptGen{})
		return s.LoadState(d)
	}
	cases := []struct {
		name       string
		hasPending bool
		drain      uint8
		want       string
	}{
		{"drain without pending directive", false, 1, `kernel: process "p" has a drain flag without a pending directive`},
		{"drain byte 2", true, 2, "bad bool byte"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := load(schedStream(t, c.hasPending, c.drain)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("LoadState = %v, want an error containing %q", err, c.want)
			}
		})
	}
	// The same stream with the drain on a pending directive is accepted.
	if err := load(schedStream(t, true, 1)); err != nil {
		t.Fatalf("LoadState(pending drain) = %v", err)
	}
}
