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
	if _, err := w.WriteTo(&buf); err != nil {
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
	got, err := decodeRefs(decoderFor(t, func(e *snapshot.Encoder) { encodeRefs(e, want) }), nil)
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
		{"address beyond 40 bits", rawRef{addr: memref.MaxAddr + 1, kind: uint8(memref.Load)},
			"kernel: reference 1 address 0x10000000000 exceeds 0xffffffffff"},
		{"address beyond 48 bits", rawRef{addr: 1 << 48, kind: uint8(memref.Load)},
			"kernel: reference 1 address 0x1000000000000 exceeds 0xffffffffff"},
		{"instruction count beyond 12 bits", rawRef{addr: 0x4000, instrs: memref.MaxInstrs + 1},
			"kernel: reference 1 instruction count 4096 exceeds 4095"},
		{"instruction count beyond 16 bits", rawRef{addr: 0x4000, instrs: 1<<16 + 5},
			"kernel: reference 1 instruction count 65541 exceeds 4095"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			refs, err := decodeRefs(refStream(t, []rawRef{good, c.bad}), nil)
			if err == nil || err.Error() != c.want {
				t.Fatalf("decodeRefs = %v, %v; want error %q", refs, err, c.want)
			}
		})
	}
	// The same stream with the good reference alone is accepted.
	refs, err := decodeRefs(refStream(t, []rawRef{good}), nil)
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

// schedImage is a one-CPU scheduler with one process, as SaveState lays it
// out: the process's state, spill and pending directive (a Block), then
// the CPU's current process and its segment and context-switch references.
type schedImage struct {
	state      procState
	spill      []memref.Ref
	hasPending bool
	drain      uint8
	cur        int
	seg, sw    []memref.Ref
}

// stream encodes the image field by field.
func (m schedImage) stream(t *testing.T) *snapshot.Decoder {
	return decoderFor(t, func(e *snapshot.Encoder) {
		e.Int(1) // CPUs
		e.Int(1) // processes on CPU 0
		e.U8(uint8(m.state))
		e.U64(0) // wake time
		encodeRefs(e, m.spill)
		e.Bool(m.hasPending)
		e.U8(uint8(Block))
		e.U64(0) // Until
		e.U64(0) // Dur
		e.U8(m.drain)
		e.Int(0) // slice used
		e.Int(m.cur)
		encodeRefs(e, m.seg)
		encodeRefs(e, m.sw)
	})
}

// schedStream encodes a one-CPU scheduler with one ready process and no
// current one, with the given pending and drain bytes.
func schedStream(t *testing.T, hasPending bool, drain uint8) *snapshot.Decoder {
	return schedImage{state: stateReady, hasPending: hasPending, drain: drain, cur: -1}.stream(t)
}

// loadOneProc loads d into a fresh one-CPU scheduler with one process "p".
func loadOneProc(d *snapshot.Decoder) error {
	s := NewScheduler(1, 100, nil)
	s.Spawn(0, "p", &scriptGen{})
	return s.LoadState(d)
}

// TestSchedulerLoadRefusesBadDrain: a drain flag without a pending
// directive, or a drain byte that is not a bool, is refused.
func TestSchedulerLoadRefusesBadDrain(t *testing.T) {
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
			if err := loadOneProc(schedStream(t, c.hasPending, c.drain)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("LoadState = %v, want an error containing %q", err, c.want)
			}
		})
	}
	// The same stream with the drain on a pending directive is accepted.
	if err := loadOneProc(schedStream(t, true, 1)); err != nil {
		t.Fatalf("LoadState(pending drain) = %v", err)
	}
}

// TestSchedulerLoadRefusesMisplacedRefs: references to run are saved in
// two places only, the spill of a preempted process (Ready, its directive
// still pending) and the segment and context-switch path of a CPU that
// has a current process. A stream holding them anywhere else is refused,
// naming the process or the CPU.
func TestSchedulerLoadRefusesMisplacedRefs(t *testing.T) {
	refs := []memref.Ref{memref.New(0x4000, memref.Load, false, false, 0), memref.New(0x4040, memref.Store, false, false, 2)}
	cases := []struct {
		name string
		img  schedImage
		want string
	}{
		{"spill without a pending directive", schedImage{state: stateReady, spill: refs, cur: -1},
			`kernel: process "p" holds 2 spilled references but was not preempted (ready, directive pending false)`},
		{"spill on the running process", schedImage{state: stateRunning, spill: refs, hasPending: true, cur: 0},
			`kernel: process "p" holds 2 spilled references but was not preempted (running, directive pending true)`},
		{"spill on a waiting process", schedImage{state: stateWaiting, spill: refs, hasPending: true, cur: -1},
			`kernel: process "p" holds 2 spilled references but was not preempted (waiting, directive pending true)`},
		{"segment without a current process", schedImage{state: stateReady, cur: -1, seg: refs},
			"kernel: CPU 0 holds 2 segment and 0 context-switch references but no current process"},
		{"switch path without a current process", schedImage{state: stateReady, cur: -1, sw: refs[:1]},
			"kernel: CPU 0 holds 0 segment and 1 context-switch references but no current process"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := loadOneProc(c.img.stream(t)); err == nil || err.Error() != c.want {
				t.Fatalf("LoadState = %v, want %q", err, c.want)
			}
		})
	}
	// A preempted process's spill, and a running process's segment and
	// switch path, are accepted.
	for _, img := range []schedImage{
		{state: stateReady, spill: refs, hasPending: true, cur: -1},
		{state: stateRunning, hasPending: true, cur: 0, seg: refs, sw: refs[:1]},
	} {
		if err := loadOneProc(img.stream(t)); err != nil {
			t.Errorf("LoadState(%+v) = %v", img, err)
		}
	}
}

// TestSnapshotMidRunWithSpill: a scheduler saved while a preempted
// process's spill is pending and a core holds a half-used run (its tail
// given back first, as core.System.Snapshot does) continues, after a load
// into a fresh scheduler, exactly as the unsaved one does; saving the
// restored scheduler reproduces the bytes.
func TestSnapshotMidRunWithSpill(t *testing.T) {
	want, wantDrains := churnSequence(t, false)

	orig, gens := newChurn()
	d := newStepper(orig, false)
	var got []stepEvent
	saved := false
	for !saved {
		ev, ok := d.step()
		if !ok {
			t.Fatal("the sequence ended before a spill was pending with a run half used")
		}
		got = append(got, ev)
		saved = ev.st == StatusRef && len(d.runs[ev.cpu]) > 0 && anySpill(orig)
	}
	savedDrains := make([][]uint64, len(gens))
	for i, g := range gens {
		savedDrains[i] = append([]uint64(nil), g.drains...)
	}
	d.giveBack()
	w := snapshot.NewWriter()
	orig.SaveState(w.Section("sched"))
	first := streamBytes(t, w)

	restored, rgens := newChurn()
	for i, g := range gens {
		rgens[i].seg = g.seg
	}
	if err := restored.LoadState(sectionOf(t, first, "sched")); err != nil {
		t.Fatal(err)
	}
	w = snapshot.NewWriter()
	restored.SaveState(w.Section("sched"))
	if second := streamBytes(t, w); !bytes.Equal(first, second) {
		t.Fatalf("save→load→save changed the %d-byte scheduler section (now %d bytes)", len(first), len(second))
	}

	for _, cont := range []*stepper{d, {s: restored, clocks: append([]uint64(nil), d.clocks...), done: append([]bool(nil), d.done...), runs: make([][]memref.Ref, len(d.runs))}} {
		seq := append([]stepEvent(nil), got...)
		seq = append(seq, cont.all(t)...)
		if !reflect.DeepEqual(seq, want) {
			t.Fatalf("continued sequence differs from the unsaved one (%d against %d steps)", len(seq), len(want))
		}
	}
	for i, g := range gens {
		if !reflect.DeepEqual(g.drains, wantDrains[i]) {
			t.Errorf("process %d drained at %v, unsaved at %v", i, g.drains, wantDrains[i])
		}
		if all := append(savedDrains[i], rgens[i].drains...); !reflect.DeepEqual(all, wantDrains[i]) {
			t.Errorf("process %d drained at %v then, restored, at %v; unsaved at %v", i, savedDrains[i], rgens[i].drains, wantDrains[i])
		}
	}
}

// streamBytes writes w to memory.
func streamBytes(t *testing.T, w *snapshot.Writer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sectionOf returns a decoder over the named section of a stream.
func sectionOf(t *testing.T, data []byte, name string) *snapshot.Decoder {
	t.Helper()
	rd, err := snapshot.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rd.Section(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
