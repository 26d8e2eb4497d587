package kernel

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"oltpsim/internal/memref"
	"oltpsim/internal/snapshot"
)

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

// wordStream encodes words as encodeRefs lays out references, so a word
// can hold what no memref.Ref does.
func wordStream(t *testing.T, words ...uint64) *snapshot.Decoder {
	return decoderFor(t, func(e *snapshot.Encoder) {
		e.Int(len(words))
		for _, w := range words {
			e.U64(w)
		}
	})
}

// TestRefCodecRoundTrip: references at the limits of every field survive
// encodeRefs and decodeRefs unchanged, each saved as its 8-byte word after
// the count.
func TestRefCodecRoundTrip(t *testing.T) {
	want := []memref.Ref{
		memref.New(0, memref.IFetch, false, false, 0),
		memref.New(memref.MaxAddr, memref.IFetch, true, false, memref.MaxInstrs),
		memref.New(0xdead0040, memref.Load, false, true, 0),
		memref.New(memref.MaxAddr-63, memref.Store, true, true, 16),
	}
	d := decoderFor(t, func(e *snapshot.Encoder) { encodeRefs(e, want) })
	if n := d.Remaining(); n != 8+8*len(want) {
		t.Fatalf("%d references encoded in %d bytes, want %d", len(want), n, 8+8*len(want))
	}
	got, err := decodeRefs(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
}

// TestDecodeRefsRefusesImpossibleRefs: a saved word that no generator can
// produce is refused by index before any machine runs it, rather than being
// run as a reference no counter sees (an unknown kind) or with bits no
// field holds. A word's 12-bit instruction field cannot exceed
// memref.MaxInstrs, so no instruction count is refused.
func TestDecodeRefsRefusesImpossibleRefs(t *testing.T) {
	good := memref.New(0x4000, memref.IFetch, false, false, 16)
	load := memref.New(0x4000, memref.Load, false, false, 0).Word()
	cases := []struct {
		name string
		bad  uint64
		want string
	}{
		{"unknown kind", 3<<48 | 0x4000,
			"kernel: reference 1: memref: word 0x3000000004000 has unknown kind 3"},
		{"address beyond 40 bits", load | 1<<40,
			"kernel: reference 1: memref: word 0x1010000004000 sets bits 40-47, beyond the 40-bit address"},
		{"bit 47 set", load | 1<<47,
			"kernel: reference 1: memref: word 0x1800000004000 sets bits 40-47, beyond the 40-bit address"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			refs, err := decodeRefs(wordStream(t, good.Word(), c.bad), nil)
			if err == nil || err.Error() != c.want {
				t.Fatalf("decodeRefs = %v, %v; want error %q", refs, err, c.want)
			}
		})
	}
	// The same stream with the good reference alone is accepted.
	refs, err := decodeRefs(wordStream(t, good.Word()), nil)
	if err != nil || len(refs) != 1 || refs[0] != good {
		t.Fatalf("decodeRefs(good) = %v, %v", refs, err)
	}
}

// TestSchedulerSnapshotKeepsDrain: a scheduler saved mid-segment with a
// drain armed restores into one that calls Drained at the same CPU time as
// the unsaved scheduler. Applying the directive clears it, so once the
// drain has run the process holds the zero directive, and a checkpoint
// taken then loads without running Drained again.
func TestSchedulerSnapshotKeepsDrain(t *testing.T) {
	segs := []scriptSeg{{refs: 6, dir: Directive{Kind: Block}}, {refs: 2, dir: Directive{Kind: Exit}}}
	orig := &scriptGen{segments: segs}
	s := NewScheduler(1, 100, nil)
	p := s.Spawn(0, "p", orig)
	n, _, _, now := drain(s, 0, 10, 3)
	if want := (Directive{Kind: Block, Drain: true}); n != 3 || p.pending != want {
		t.Fatalf("after %d refs: directive %+v; want %+v", n, p.pending, want)
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
	if p.pending != (Directive{}) {
		t.Fatalf("after the drain: directive %+v; want the zero directive", p.pending)
	}
	if _, g := restore(s, orig.pos); len(g.drains) != 0 {
		t.Fatalf("loading a consumed directive ran Drained at %v", g.drains)
	}
}

// schedImage is a one-CPU scheduler with one process, as SaveState lays it
// out: the process's state, spill and directive, then the CPU's current
// process, its context-switch count and its references.
type schedImage struct {
	state procState
	spill []memref.Ref
	dir   DirectiveKind
	drain uint8
	cur   int
	sw    int
	refs  []memref.Ref
}

// stream encodes the image field by field.
func (m schedImage) stream(t *testing.T) *snapshot.Decoder {
	return decoderFor(t, func(e *snapshot.Encoder) {
		e.Int(1) // CPUs
		e.Int(1) // processes on CPU 0
		e.U8(uint8(m.state))
		e.U64(0) // wake time
		encodeRefs(e, m.spill)
		e.U8(uint8(m.dir))
		e.U64(0) // Until
		e.U64(0) // Dur
		e.U8(m.drain)
		e.Int(m.cur)
		e.Int(0) // slice used
		e.Int(m.sw)
		encodeRefs(e, m.refs)
	})
}

// loadOneProc loads d into a fresh one-CPU scheduler with one process "p"
// running g.
func loadOneProc(d *snapshot.Decoder, g *scriptGen) (*Scheduler, error) {
	s := NewScheduler(1, 100, nil)
	s.Spawn(0, "p", g)
	return s, s.LoadState(d)
}

// TestSchedulerLoadRefusesBadDrain: a drain byte that is not a bool is
// refused.
func TestSchedulerLoadRefusesBadDrain(t *testing.T) {
	t.Run("drain byte 2", func(t *testing.T) {
		img := schedImage{state: stateReady, dir: Block, drain: 2, cur: -1}
		if _, err := loadOneProc(img.stream(t), &scriptGen{}); err == nil || !strings.Contains(err.Error(), "bad bool byte") {
			t.Fatalf("LoadState = %v, want a bad bool byte", err)
		}
	})
	// The same stream with a drain byte of 1 is accepted.
	img := schedImage{state: stateReady, dir: Block, drain: 1, cur: -1}
	if _, err := loadOneProc(img.stream(t), &scriptGen{}); err != nil {
		t.Fatalf("LoadState(pending drain) = %v", err)
	}
}

// TestSchedulerLoadRefusesMisplacedRefs: references to run are saved in
// two places only, the spill of a preempted process (ready, and not its
// CPU's current process) and the buffer of a CPU that has a current,
// ready process, the buffer's first references its context-switch path.
// A stream holding them anywhere else is refused, naming the process or
// the CPU.
func TestSchedulerLoadRefusesMisplacedRefs(t *testing.T) {
	refs := []memref.Ref{memref.New(0x4000, memref.Load, false, false, 0), memref.New(0x4040, memref.Store, false, false, 2)}
	cases := []struct {
		name string
		img  schedImage
		want string
	}{
		{"spill on the running process", schedImage{state: stateReady, spill: refs, cur: 0},
			`kernel: process "p" holds 2 spilled references but is running`},
		{"spill on a waiting process", schedImage{state: stateWaiting, spill: refs, cur: -1},
			`kernel: process "p" holds 2 spilled references but is waiting`},
		{"current process not ready", schedImage{state: stateSleeping, cur: 0, refs: refs},
			`kernel: CPU 0 current process "p" is sleeping`},
		{"segment without a current process", schedImage{state: stateReady, cur: -1, refs: refs},
			"kernel: CPU 0 holds 2 references, 0 of them its context-switch path, but no current process"},
		{"switch path without a current process", schedImage{state: stateReady, cur: -1, sw: 1, refs: refs[:1]},
			"kernel: CPU 0 holds 1 references, 1 of them its context-switch path, but no current process"},
		{"switch path beyond the references", schedImage{state: stateReady, cur: 0, sw: 3, refs: refs},
			"kernel: CPU 0 context-switch path of 3 references exceeds the 2 it holds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := loadOneProc(c.img.stream(t), &scriptGen{}); err == nil || err.Error() != c.want {
				t.Fatalf("LoadState = %v, want %q", err, c.want)
			}
		})
	}
	// A preempted process's spill, and a running process's buffer whose
	// first reference is its switch path, are accepted.
	for _, img := range []schedImage{
		{state: stateReady, spill: refs, cur: -1},
		{state: stateReady, cur: 0, sw: 1, refs: refs},
	} {
		if _, err := loadOneProc(img.stream(t), &scriptGen{}); err != nil {
			t.Errorf("LoadState(%+v) = %v", img, err)
		}
	}
}

// TestSchedulerLoadDispatchesReadyProcess: a process saved ready, with its
// directive pending, on a CPU with no current process is dispatched by the
// next Next, which applies the directive and runs the next segment rather
// than idling. No saved state can say a process runs without naming the
// CPU that runs it.
func TestSchedulerLoadDispatchesReadyProcess(t *testing.T) {
	g := &scriptGen{segments: []scriptSeg{{refs: 3, dir: Directive{Kind: Exit}}}}
	s, err := loadOneProc(schedImage{state: stateReady, dir: Run, drain: 1, cur: -1}.stream(t), g)
	if err != nil {
		t.Fatal(err)
	}
	run, st, _ := s.Next(0, 50)
	if st != StatusRef || len(run) != 3 || !reflect.DeepEqual(g.drains, []uint64{50}) {
		t.Fatalf("Next = %d references, %v, drains %v; want the next segment after a drain at 50", len(run), st, g.drains)
	}
	if !strings.Contains(s.DumpState(), "p=running@0") {
		t.Fatalf("dispatched process not shown running:\n%s", s.DumpState())
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
