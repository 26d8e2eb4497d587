package kernel

import (
	"reflect"
	"testing"

	"oltpsim/internal/memref"
)

// scriptGen replays a list of scripted segments.
type scriptGen struct {
	segments []scriptSeg
	pos      int
	drains   []uint64
}

type scriptSeg struct {
	refs int
	dir  Directive
}

func (g *scriptGen) NextSegment(now uint64, out *RefBuffer) Directive {
	if g.pos >= len(g.segments) {
		return Directive{Kind: Exit}
	}
	seg := g.segments[g.pos]
	g.pos++
	for i := 0; i < seg.refs; i++ {
		out.Append(memref.New(uint64(i)*64, memref.Load, false, false, 0))
	}
	d := seg.dir
	d.Drain = true
	return d
}

// Drained records the drain time of every scripted segment: NextSegment
// arms the drain on each of them.
func (g *scriptGen) Drained(now uint64) { g.drains = append(g.drains, now) }

// drain times up to max refs from the scheduler, one cycle per reference,
// taking them in whole runs and giving back the part of the last run past
// max, and returns the refs seen and the final status.
func drain(s *Scheduler, cpu int, start uint64, max int) (n int, st Status, wake uint64, now uint64) {
	now = start
	for n < max {
		run, status, w := s.Next(cpu, now)
		if status != StatusRef {
			return n, status, w, now
		}
		take := min(len(run), max-n)
		s.Unread(cpu, len(run)-take)
		n += take
		now += uint64(take)
	}
	return n, StatusRef, 0, now
}

func TestRunThenExit(t *testing.T) {
	s := NewScheduler(1, 100, nil)
	g := &scriptGen{segments: []scriptSeg{{refs: 5, dir: Directive{Kind: Run}}, {refs: 3, dir: Directive{Kind: Exit}}}}
	s.Spawn(0, "p", g)
	n, st, _, _ := drain(s, 0, 0, 100)
	if n != 8 || st != StatusDone {
		t.Fatalf("drained %d refs, status %v", n, st)
	}
}

func TestOnDrainFiresAfterRefs(t *testing.T) {
	s := NewScheduler(1, 100, nil)
	g := &scriptGen{segments: []scriptSeg{{refs: 4, dir: Directive{Kind: Exit}}}}
	s.Spawn(0, "p", g)
	_, _, _, now := drain(s, 0, 10, 100)
	if len(g.drains) != 1 {
		t.Fatalf("Drained ran %d times", len(g.drains))
	}
	if g.drains[0] != now {
		t.Fatalf("Drained at %d, want drain time %d", g.drains[0], now)
	}
}

func TestSleepAndWake(t *testing.T) {
	s := NewScheduler(1, 100, nil)
	g := &scriptGen{segments: []scriptSeg{
		{refs: 2, dir: Directive{Kind: Sleep, Until: 1000}},
		{refs: 1, dir: Directive{Kind: Exit}},
	}}
	s.Spawn(0, "p", g)
	n, st, wake, now := drain(s, 0, 0, 100)
	if n != 2 || st != StatusIdle || wake != 1000 {
		t.Fatalf("n=%d st=%v wake=%d", n, st, wake)
	}
	_ = now
	n, st, _, _ = drain(s, 0, 1000, 100)
	if n != 1 || st != StatusDone {
		t.Fatalf("after sleep: n=%d st=%v", n, st)
	}
}

func TestIOWaitMeasuredFromDrain(t *testing.T) {
	s := NewScheduler(1, 100, nil)
	g := &scriptGen{segments: []scriptSeg{
		{refs: 3, dir: Directive{Kind: IOWait, Dur: 500}},
		{refs: 1, dir: Directive{Kind: Exit}},
	}}
	s.Spawn(0, "p", g)
	n, st, wake, now := drain(s, 0, 100, 100)
	if n != 3 || st != StatusIdle {
		t.Fatalf("n=%d st=%v", n, st)
	}
	if wake != now+500 {
		t.Fatalf("wake %d, want drain(%d)+500", wake, now)
	}
}

func TestBlockAndExplicitWake(t *testing.T) {
	s := NewScheduler(1, 100, nil)
	g := &scriptGen{segments: []scriptSeg{
		{refs: 1, dir: Directive{Kind: Block}},
		{refs: 1, dir: Directive{Kind: Exit}},
	}}
	p := s.Spawn(0, "p", g)
	_, st, _, now := drain(s, 0, 0, 100)
	if st != StatusIdle {
		t.Fatalf("blocked proc: status %v", st)
	}
	s.Wake(p, now+50)
	n, st, _, _ := drain(s, 0, now+50, 100)
	if n != 1 || st != StatusDone {
		t.Fatalf("after wake: n=%d st=%v", n, st)
	}
}

func TestWakeNonWaitingIsNoop(t *testing.T) {
	s := NewScheduler(1, 100, nil)
	g := &scriptGen{segments: []scriptSeg{{refs: 1, dir: Directive{Kind: Exit}}}}
	p := s.Spawn(0, "p", g)
	s.Wake(p, 5) // ready, not waiting
	if p.state != stateReady {
		t.Fatal("Wake changed a ready process")
	}
}

// TestRoundRobinBetweenProcs: with a tiny quantum the two processes take
// turns. Run to completion one after the other, they would be switched in
// twice; any further switch is a preemption.
func TestRoundRobinBetweenProcs(t *testing.T) {
	switches := 0
	s := NewScheduler(1, 2, func(int, *RefBuffer) { switches++ })
	a := &scriptGen{segments: []scriptSeg{{refs: 10, dir: Directive{Kind: Exit}}}}
	b := &scriptGen{segments: []scriptSeg{{refs: 10, dir: Directive{Kind: Exit}}}}
	s.Spawn(0, "a", a)
	s.Spawn(0, "b", b)
	n, st, _, _ := drain(s, 0, 0, 100)
	if n != 20 || st != StatusDone {
		t.Fatalf("n=%d st=%v", n, st)
	}
	if switches <= 2 {
		t.Fatalf("tiny quantum produced no preemptions (%d switches)", switches)
	}
}

func TestContextSwitchOverheadInjected(t *testing.T) {
	switches := 0
	s := NewScheduler(1, 1000, func(cpu int, out *RefBuffer) {
		switches++
		out.Append(memref.New(0xdead0000, memref.IFetch, true, false, 16))
	})
	g := &scriptGen{segments: []scriptSeg{{refs: 2, dir: Directive{Kind: Exit}}}}
	s.Spawn(0, "p", g)
	run, st, _ := s.Next(0, 0)
	if st != StatusRef || len(run) != 1 || run[0].Addr() != 0xdead0000 || !run[0].Kernel() {
		t.Fatalf("first run not the switch overhead: %v (%v)", run, st)
	}
	if switches != 1 {
		t.Fatalf("switch hook ran %d times", switches)
	}
}

func TestCrossCPUPinning(t *testing.T) {
	s := NewScheduler(2, 100, nil)
	g0 := &scriptGen{segments: []scriptSeg{{refs: 3, dir: Directive{Kind: Exit}}}}
	g1 := &scriptGen{segments: []scriptSeg{{refs: 4, dir: Directive{Kind: Exit}}}}
	s.Spawn(0, "p0", g0)
	s.Spawn(1, "p1", g1)
	n0, st0, _, _ := drain(s, 0, 0, 100)
	n1, st1, _, _ := drain(s, 1, 0, 100)
	if n0 != 3 || n1 != 4 || st0 != StatusDone || st1 != StatusDone {
		t.Fatalf("per-cpu drain: %d/%v %d/%v", n0, st0, n1, st1)
	}
}

func TestIdleRecheckWhenAllWaiting(t *testing.T) {
	s := NewScheduler(1, 100, nil)
	g := &scriptGen{segments: []scriptSeg{
		{refs: 1, dir: Directive{Kind: Block}},
		{refs: 1, dir: Directive{Kind: Exit}},
	}}
	s.Spawn(0, "p", g)
	_, st, wake, now := drain(s, 0, 0, 100)
	if st != StatusIdle || wake <= now {
		t.Fatalf("all-waiting idle: st=%v wake=%d now=%d", st, wake, now)
	}
}

func TestEmptySegmentAppliesDirective(t *testing.T) {
	s := NewScheduler(1, 100, nil)
	g := &scriptGen{segments: []scriptSeg{
		{refs: 0, dir: Directive{Kind: Sleep, Until: 77}},
		{refs: 1, dir: Directive{Kind: Exit}},
	}}
	s.Spawn(0, "p", g)
	_, st, wake, _ := drain(s, 0, 0, 100)
	if st != StatusIdle || wake != 77 {
		t.Fatalf("st=%v wake=%d", st, wake)
	}
}

func TestSchedulerValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewScheduler(0, 1, nil) },
		func() { NewScheduler(1, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid scheduler did not panic")
				}
			}()
			f()
		}()
	}
	s := NewScheduler(1, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("spawn on bad CPU did not panic")
		}
	}()
	s.Spawn(5, "x", &scriptGen{})
}

func TestDumpState(t *testing.T) {
	s := NewScheduler(1, 100, nil)
	s.Spawn(0, "p", &scriptGen{})
	if out := s.DumpState(); out == "" {
		t.Fatal("empty dump")
	}
}

// churnGen is a process whose segments are mostly longer than the small
// quantum newChurn uses, so slices expire mid-segment and preemption
// leaves spills. Each reference's address names the process, the segment
// and the reference's place in it, and the directives cycle through Run,
// IOWait and Sleep so processes leave and rejoin the run queue.
type churnGen struct {
	id     int
	seg    int // segments produced
	drains []uint64
}

func (g *churnGen) NextSegment(now uint64, out *RefBuffer) Directive {
	g.seg++
	n := 5 + (g.id*7+g.seg*3)%23
	for i := 0; i < n; i++ {
		addr := uint64(g.id)<<32 | uint64(g.seg)<<16 | uint64(i)<<6
		out.Append(memref.New(addr, memref.Load, false, false, i%3))
	}
	switch {
	case g.seg >= 12:
		return Directive{Kind: Exit, Drain: true}
	case g.seg%3 == 0:
		return Directive{Kind: IOWait, Dur: 40, Drain: true}
	case g.seg%4 == 1:
		return Directive{Kind: Sleep, Until: now + 25, Drain: true}
	default:
		return Directive{Kind: Run, Drain: true}
	}
}

func (g *churnGen) Drained(now uint64) { g.drains = append(g.drains, now) }

// newChurn builds two CPUs of three churnGen processes each under a
// quantum of 8 references, with a three-reference context-switch path.
func newChurn() (*Scheduler, []*churnGen) {
	s := NewScheduler(2, 8, func(cpu int, out *RefBuffer) {
		for i := 0; i < 3; i++ {
			out.Append(memref.New(0xdead0000+uint64(cpu)<<12+uint64(i)<<6, memref.IFetch, true, false, 4))
		}
	})
	var gens []*churnGen
	for cpu := 0; cpu < 2; cpu++ {
		for i := 0; i < 3; i++ {
			g := &churnGen{id: len(gens)}
			s.Spawn(cpu, "p", g)
			gens = append(gens, g)
		}
	}
	return s, gens
}

// stepEvent is one step of a stepper: the CPU, its clock, and what Next's
// run (or status) gave it.
type stepEvent struct {
	cpu  int
	now  uint64
	ref  memref.Ref
	st   Status
	wake uint64
}

// stepper drives a scheduler as core.System does: the earliest CPU (lowest
// index on a tie) takes one step, timing the next reference of the run it
// holds and calling Next only when that run is used up. A reference costs
// one cycle plus its instructions. With oneRef set it takes one reference
// per call and gives the rest of each run back.
type stepper struct {
	s      *Scheduler
	clocks []uint64
	done   []bool
	runs   [][]memref.Ref
	oneRef bool
}

func newStepper(s *Scheduler, oneRef bool) *stepper {
	n := len(s.cpus)
	return &stepper{s: s, clocks: make([]uint64, n), done: make([]bool, n), runs: make([][]memref.Ref, n), oneRef: oneRef}
}

func (d *stepper) step() (stepEvent, bool) {
	c := -1
	for i := range d.clocks {
		if !d.done[i] && (c < 0 || d.clocks[i] < d.clocks[c]) {
			c = i
		}
	}
	if c < 0 {
		return stepEvent{}, false
	}
	ev := stepEvent{cpu: c, now: d.clocks[c], st: StatusRef}
	if len(d.runs[c]) == 0 {
		run, st, wake := d.s.Next(c, d.clocks[c])
		switch st {
		case StatusDone:
			d.done[c] = true
			ev.st = st
			return ev, true
		case StatusIdle:
			d.clocks[c] = max(d.clocks[c], wake)
			ev.st, ev.wake = st, wake
			return ev, true
		}
		if d.oneRef {
			d.s.Unread(c, len(run)-1)
			run = run[:1]
		}
		d.runs[c] = run
	}
	ev.ref = d.runs[c][0]
	d.runs[c] = d.runs[c][1:]
	d.clocks[c] += 1 + uint64(ev.ref.Instrs())
	return ev, true
}

// all steps until every CPU is done.
func (d *stepper) all(t *testing.T) []stepEvent {
	t.Helper()
	var seq []stepEvent
	for {
		ev, ok := d.step()
		if !ok {
			return seq
		}
		seq = append(seq, ev)
		if len(seq) > 100_000 {
			t.Fatal("runaway sequence")
		}
	}
}

// giveBack hands every CPU's unconsumed run back to the scheduler.
func (d *stepper) giveBack() {
	for c, run := range d.runs {
		d.s.Unread(c, len(run))
		d.runs[c] = nil
	}
}

// anySpill reports whether a preempted process holds spilled references.
func anySpill(s *Scheduler) bool {
	for c := range s.cpus {
		for _, p := range s.cpus[c].procs {
			if len(p.spill) > 0 {
				return true
			}
		}
	}
	return false
}

// churnSequence runs newChurn to the end and returns its steps and each
// process's drain times.
func churnSequence(t *testing.T, oneRef bool) ([]stepEvent, [][]uint64) {
	t.Helper()
	s, gens := newChurn()
	seq := newStepper(s, oneRef).all(t)
	drains := make([][]uint64, len(gens))
	for i, g := range gens {
		drains[i] = g.drains
	}
	return seq, drains
}

// TestRunsMatchOneReferencePerCall: with a quantum shorter than the
// segments, so that preemption spills, consuming whole runs gives the same
// (reference, status, wake) sequence at the same clocks, and the same
// drain times, as taking one reference per call.
func TestRunsMatchOneReferencePerCall(t *testing.T) {
	runs, runDrains := churnSequence(t, false)
	refs, refDrains := churnSequence(t, true)
	if !reflect.DeepEqual(runs, refs) {
		for i := range min(len(runs), len(refs)) {
			if runs[i] != refs[i] {
				t.Fatalf("step %d: runs give %+v, one reference per call %+v", i, runs[i], refs[i])
			}
		}
		t.Fatalf("runs give %d steps, one reference per call %d", len(runs), len(refs))
	}
	if !reflect.DeepEqual(runDrains, refDrains) {
		t.Fatalf("drain times differ: runs %v, one reference per call %v", runDrains, refDrains)
	}

	// The script must exercise what it is for: preemption with a spill,
	// and runs longer than one reference.
	s, _ := newChurn()
	d := newStepper(s, false)
	spilled, longRun := false, false
	for {
		ev, ok := d.step()
		if !ok {
			break
		}
		spilled = spilled || anySpill(s)
		longRun = longRun || (ev.st == StatusRef && len(d.runs[ev.cpu]) > 0)
	}
	if !spilled || !longRun {
		t.Fatalf("spilled %t, multi-reference runs %t: the script no longer exercises preemption", spilled, longRun)
	}
}
