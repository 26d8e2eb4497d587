package core

import (
	"math/rand"
	"testing"

	"oltpsim/internal/kernel"
	"oltpsim/internal/memref"
)

// The tests in this file pin the scheduling contract Step must preserve no
// matter how the earliest-core selection is implemented:
//
//  1. the core with the lowest clock is served next;
//  2. equal clocks tie-break to the lowest CPU ID;
//  3. a core that keeps its clock (zero-latency work, or an idle nap that
//     does not advance time) is re-served before any equal-clock peer with a
//     higher ID;
//  4. a core that returned StatusDone is never asked for work again;
//  5. Step returns false exactly when every core is done.
//
// They drive Step through a scripted workload that records the order of Next
// calls, so any reordering — however byte-compatible it might look in
// aggregate statistics — fails loudly.

// orderAct is one scripted response from orderSource.
type orderAct struct {
	st   kernel.Status
	wake uint64 // StatusIdle wake time
}

// orderEvent records one Next call as observed by the workload.
type orderEvent struct {
	cpu int
	now uint64
}

// orderSource is a Workload that replays a fixed per-CPU script of idle naps
// and records every Next call. CPUs whose scripts are exhausted report
// StatusDone.
type orderSource struct {
	acts  [][]orderAct
	pos   []int
	calls []orderEvent
}

func newOrderSource(cpus int) *orderSource {
	return &orderSource{acts: make([][]orderAct, cpus), pos: make([]int, cpus)}
}

func (s *orderSource) idle(cpu int, wake uint64) {
	s.acts[cpu] = append(s.acts[cpu], orderAct{st: kernel.StatusIdle, wake: wake})
}

func (s *orderSource) Next(cpu int, now uint64) ([]memref.Ref, kernel.Status, uint64) {
	s.calls = append(s.calls, orderEvent{cpu: cpu, now: now})
	if s.pos[cpu] >= len(s.acts[cpu]) {
		return nil, kernel.StatusDone, 0
	}
	a := s.acts[cpu][s.pos[cpu]]
	s.pos[cpu]++
	return nil, a.st, a.wake
}

func (s *orderSource) HomeOf(line uint64) int { return 0 }
func (s *orderSource) CommitCounter() *uint64 { return new(uint64) }

func checkCallOrder(t *testing.T, sys *System, src *orderSource, want []orderEvent) {
	t.Helper()
	steps := 0
	for sys.Step() {
		steps++
		if steps > 10*len(want) {
			t.Fatalf("runaway: %d steps for %d expected calls", steps, len(want))
		}
	}
	if len(src.calls) != len(want) {
		t.Fatalf("Next called %d times, want %d\ngot:  %v\nwant: %v",
			len(src.calls), len(want), src.calls, want)
	}
	for i := range want {
		if src.calls[i] != want[i] {
			t.Fatalf("call %d = {cpu %d, now %d}, want {cpu %d, now %d}\nfull order: %v",
				i, src.calls[i].cpu, src.calls[i].now, want[i].cpu, want[i].now, src.calls)
		}
	}
	if sys.Step() {
		t.Fatal("Step returned true after every core reported done")
	}
}

// TestStepTieBreakLowestCPU: equal clocks are served in ascending CPU-ID
// order, at time zero and again after the cores advance in lockstep; once the
// clocks diverge, strict earliest-first order takes over.
func TestStepTieBreakLowestCPU(t *testing.T) {
	src := newOrderSource(3)
	// Round 1: all cores tie at 0, each naps to 100.
	for cpu := 0; cpu < 3; cpu++ {
		src.idle(cpu, 100)
	}
	// Round 2: three-way tie at 100; the naps stagger the clocks so round 3
	// must run in wake order 1, 0, 2 — not ID order.
	src.idle(0, 250)
	src.idle(1, 200)
	src.idle(2, 300)

	sys := MustNewSystem(smallCfg(3), src)
	checkCallOrder(t, sys, src, []orderEvent{
		{0, 0}, {1, 0}, {2, 0},
		{0, 100}, {1, 100}, {2, 100},
		{1, 200}, {0, 250}, {2, 300},
	})
}

// TestStepZeroAdvanceKeepsCore: a core whose clock does not move (an idle nap
// at or before now) stays the earliest under the lowest-ID tie-break and is
// re-served immediately; equal-clock peers wait until it advances.
func TestStepZeroAdvanceKeepsCore(t *testing.T) {
	src := newOrderSource(2)
	// CPU 0 naps twice to its own current time (AdvanceTo is a no-op), then
	// advances past CPU 1.
	src.idle(0, 0)
	src.idle(0, 0)
	src.idle(0, 100)
	src.idle(1, 50)

	sys := MustNewSystem(smallCfg(2), src)
	checkCallOrder(t, sys, src, []orderEvent{
		{0, 0}, {0, 0}, {0, 0},
		{1, 0}, {1, 50}, {0, 100},
	})
}

// TestStepDoneCoreNeverSelected: once a CPU reports StatusDone it must never
// be offered another step, even while live cores keep ticking past it, and
// Step keeps returning true for the survivors.
func TestStepDoneCoreNeverSelected(t *testing.T) {
	src := newOrderSource(3)
	// CPU 1 dies on its first call (empty script). CPUs 0 and 2 keep running
	// long past that point.
	src.idle(0, 10)
	src.idle(0, 20)
	src.idle(0, 30)
	src.idle(2, 15)
	src.idle(2, 25)

	sys := MustNewSystem(smallCfg(3), src)
	checkCallOrder(t, sys, src, []orderEvent{
		{0, 0}, {1, 0}, {2, 0},
		{0, 10}, {2, 15}, {0, 20},
		// The survivors' final calls find exhausted scripts and report done
		// in earliest-clock order; CPU 1 is never called again.
		{2, 25}, {0, 30},
	})
	calls1 := 0
	for _, c := range src.calls {
		if c.cpu == 1 {
			calls1++
		}
	}
	if calls1 != 1 {
		t.Fatalf("done CPU 1 was called %d times, want exactly 1", calls1)
	}
}

// TestStepOrderMatchesLinearScanReference cross-checks the event queue
// against a straight transliteration of the contract it must preserve: a
// linear scan picking the lowest (clock, CPU ID) live core, with idle naps
// advancing the clock to max(now, wake) and exhausted scripts removing the
// core. Randomized scripts (fixed seeds) hammer ties, zero-advance naps, and
// staggered deaths far beyond what the hand-written cases cover.
func TestStepOrderMatchesLinearScanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 50; trial++ {
		checkAgainstLinearScan(t, randomScripts(rng, 2+rng.Intn(7), 1))
	}
	// One CPU, core counts the tree pads up to a power of two with finished
	// leaves, and the 64- and 128-CPU trees. Empty scripts make a core
	// finish on its first call; with no scripts at all, every core does.
	for _, cpus := range []int{1, 3, 5, 7, 13, 64, 128} {
		checkAgainstLinearScan(t, randomScripts(rng, cpus, 0))
		checkAgainstLinearScan(t, randomScripts(rng, cpus, 0))
		checkAgainstLinearScan(t, newOrderSource(cpus))
	}
}

// randomScripts gives each of cpus cores minSteps..40 idle naps.
func randomScripts(rng *rand.Rand, cpus, minSteps int) *orderSource {
	src := newOrderSource(cpus)
	for cpu := 0; cpu < cpus; cpu++ {
		steps := minSteps + rng.Intn(41-minSteps)
		for k := 0; k < steps; k++ {
			// Wakes from a small absolute range so clocks collide often;
			// wakes in the past exercise the zero-advance re-serve path.
			src.idle(cpu, uint64(rng.Intn(60)))
		}
	}
	return src
}

// checkAgainstLinearScan runs src's scripts through a linear-scan reference
// and through Step, and requires the same Next calls in the same order.
func checkAgainstLinearScan(t *testing.T, src *orderSource) {
	t.Helper()
	cpus := len(src.acts)
	clock := make([]uint64, cpus)
	done := make([]bool, cpus)
	ppos := make([]int, cpus)
	var want []orderEvent
	for {
		idx := -1
		best := ^uint64(0)
		for i := 0; i < cpus; i++ {
			if !done[i] && clock[i] < best {
				idx, best = i, clock[i]
			}
		}
		if idx < 0 {
			break
		}
		want = append(want, orderEvent{cpu: idx, now: best})
		if ppos[idx] >= len(src.acts[idx]) {
			done[idx] = true
			continue
		}
		if w := src.acts[idx][ppos[idx]].wake; w > clock[idx] {
			clock[idx] = w
		}
		ppos[idx]++
	}

	sys := MustNewSystem(smallCfg(cpus), src)
	checkCallOrder(t, sys, src, want)
}
