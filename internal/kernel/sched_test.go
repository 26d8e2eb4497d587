package kernel

import (
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

// drain pulls refs from the scheduler, advancing a fake clock one cycle per
// reference, and returns the refs seen and the final status.
func drain(s *Scheduler, cpu int, start uint64, max int) (n int, st Status, wake uint64, now uint64) {
	now = start
	for i := 0; i < max; i++ {
		_, status, w := s.Next(cpu, now)
		if status != StatusRef {
			return n, status, w, now
		}
		n++
		now++
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
	r, st, _ := s.Next(0, 0)
	if st != StatusRef || r.Addr() != 0xdead0000 || !r.Kernel() {
		t.Fatalf("first ref not switch overhead: %+v (%v)", r, st)
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
