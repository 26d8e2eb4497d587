package kernel

import (
	"fmt"

	"oltpsim/internal/memref"
)

// Status is what the scheduler hands the timing engine for a CPU.
type Status uint8

const (
	// StatusRef: a reference was produced and should be timed.
	StatusRef Status = iota
	// StatusIdle: no process is runnable; the CPU should advance its clock
	// to the accompanying wake time and count idle cycles.
	StatusIdle
	// StatusDone: every process pinned to this CPU has exited.
	StatusDone
)

// DirectiveKind says what a process does when its current reference segment
// has been consumed.
type DirectiveKind uint8

const (
	// Run: call the generator again immediately (the segment was split only
	// for buffering reasons).
	Run DirectiveKind = iota
	// Block: wait until another process calls Scheduler.Wake (commit waiting
	// for the log writer, a daemon waiting for work).
	Block
	// Sleep: wait until an absolute time (periodic daemons).
	Sleep
	// IOWait: wait for a fixed duration measured from the moment the CPU
	// consumed the last reference of the segment (a disk I/O issued at the
	// end of the segment).
	IOWait
	// Exit: the process is finished.
	Exit
)

// Directive tells the scheduler what to do after a segment drains.
type Directive struct {
	Kind  DirectiveKind
	Until uint64 // absolute wake time for Sleep
	Dur   uint64 // duration for IOWait
	// Drain asks for the generator's Drained call at the moment the CPU has
	// consumed the segment's last reference, before Kind is applied.
	// Generators use it for actions that must be ordered after the segment's
	// memory references — signalling the log writer, counting a committed
	// transaction. The generator's own state says which action is due, so
	// the directive stays plain data that a checkpoint saves as one byte.
	Drain bool
}

// RefBuffer collects the references of one segment. Generators append to it;
// the scheduler feeds it to the CPU one reference at a time.
type RefBuffer struct {
	Refs []memref.Ref
}

// Append adds one reference.
func (b *RefBuffer) Append(r memref.Ref) { b.Refs = append(b.Refs, r) }

// Len returns the number of buffered references.
func (b *RefBuffer) Len() int { return len(b.Refs) }

// Generator produces the reference stream of one simulated process, one
// segment at a time. A segment typically covers the work between two blocking
// points (e.g. one transaction up to its commit wait).
type Generator interface {
	// NextSegment appends the next segment's references to out and returns
	// the directive to apply once they have been consumed. now is the
	// process's CPU-local clock at the call.
	NextSegment(now uint64, out *RefBuffer) Directive
	// Drained runs when a segment whose directive set Drain has been
	// consumed; now is the CPU clock at that instant.
	Drained(now uint64)
}

type procState uint8

const (
	stateReady procState = iota
	stateRunning
	stateWaiting  // blocked on an explicit Wake
	stateSleeping // blocked on a time
	stateDead
)

// Proc is one simulated process, pinned to a CPU (the paper uses Oracle in
// dedicated mode with servers distributed evenly; we pin for determinism).
type Proc struct {
	Name string
	CPU  int

	gen        Generator
	state      procState
	wakeAt     uint64
	buf        RefBuffer
	pos        int
	pending    Directive
	hasPending bool
	sliceUsed  int
}

// State descriptions for diagnostics.
func (p *Proc) stateName() string {
	switch p.state {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateWaiting:
		return "waiting"
	case stateSleeping:
		return "sleeping"
	case stateDead:
		return "dead"
	default:
		return "?"
	}
}

type cpuQueue struct {
	cur   *Proc
	procs []*Proc // every proc pinned to this CPU
	// Pending context-switch overhead, kept inline so the per-reference
	// fast path in Next touches only this struct.
	swBuf RefBuffer
	swPos int
}

// Scheduler multiplexes the processes pinned to each CPU, implementing the
// timing engine's per-CPU reference source. It injects context-switch
// overhead references (supplied by the harness, since they are kernel code
// walks) whenever it switches processes — the resulting cache pollution is
// part of what makes OLTP instruction footprints overwhelm the L1s.
type Scheduler struct {
	cpus    []cpuQueue
	quantum int // references per time slice
	// switchRefs, when non-nil, appends the context-switch path to a buffer.
	switchRefs func(cpu int, out *RefBuffer)
}

// idleRecheck is how long a CPU with no known wake time naps before
// rechecking; cross-CPU wakes land within one interval.
const idleRecheck = 2048

// NewScheduler creates a scheduler for cpus processors. quantum is the time
// slice in references (a proxy for cycles; OLTP processes block far more
// often than slices expire). switchRefs may be nil to disable switch
// overhead.
func NewScheduler(cpus, quantum int, switchRefs func(cpu int, out *RefBuffer)) *Scheduler {
	if cpus <= 0 {
		panic("kernel: scheduler needs at least one CPU")
	}
	if quantum <= 0 {
		panic("kernel: scheduler quantum must be positive")
	}
	return &Scheduler{
		cpus:       make([]cpuQueue, cpus),
		quantum:    quantum,
		switchRefs: switchRefs,
	}
}

// Spawn creates a process pinned to cpu. Processes start Ready at time 0.
func (s *Scheduler) Spawn(cpu int, name string, g Generator) *Proc {
	if cpu < 0 || cpu >= len(s.cpus) {
		panic(fmt.Sprintf("kernel: spawn %q on CPU %d of %d", name, cpu, len(s.cpus)))
	}
	p := &Proc{Name: name, CPU: cpu, gen: g, state: stateReady}
	s.cpus[cpu].procs = append(s.cpus[cpu].procs, p)
	return p
}

// Wake makes a Waiting process Ready at time at. Waking a process that is
// not Waiting is a no-op (the signal is then handled by generator-level
// flags, e.g. the log writer noticing queued commits before sleeping).
func (s *Scheduler) Wake(p *Proc, at uint64) {
	if p.state != stateWaiting {
		return
	}
	p.state = stateReady
	p.wakeAt = at
}

// Next produces the next reference for cpu, whose local clock reads now.
// Status semantics follow the Status constants; wake is meaningful only for
// StatusIdle.
func (s *Scheduler) Next(cpu int, now uint64) (r memref.Ref, st Status, wake uint64) {
	c := &s.cpus[cpu]
	for {
		// Pending context-switch overhead takes priority.
		if c.swPos < len(c.swBuf.Refs) {
			r = c.swBuf.Refs[c.swPos]
			c.swPos++
			return r, StatusRef, 0
		}

		if c.cur == nil {
			if !s.dispatch(c, cpu, now) {
				wake, any := s.earliestWake(c, now)
				if !any {
					if s.allDead(c) {
						return memref.Ref{}, StatusDone, 0
					}
					// Everything is Waiting on a cross-CPU event whose time
					// we cannot know yet; nap briefly and recheck.
					return memref.Ref{}, StatusIdle, now + idleRecheck
				}
				return memref.Ref{}, StatusIdle, wake
			}
			continue
		}

		p := c.cur
		if p.pos < len(p.buf.Refs) {
			if p.sliceUsed >= s.quantum && s.someoneElseReady(c, p, now) {
				// Slice expired: preempt at this reference boundary.
				p.state = stateReady
				p.wakeAt = now
				c.cur = nil
				continue
			}
			r = p.buf.Refs[p.pos]
			p.pos++
			p.sliceUsed++
			return r, StatusRef, 0
		}

		// Segment drained: apply the pending directive, if any.
		if p.hasPending {
			p.hasPending = false
			if p.pending.Drain {
				p.gen.Drained(now)
			}
			switch p.pending.Kind {
			case Run:
				// fall through to refill
			case Block:
				p.state = stateWaiting
				c.cur = nil
				continue
			case Sleep:
				p.state = stateSleeping
				p.wakeAt = p.pending.Until
				c.cur = nil
				continue
			case IOWait:
				p.state = stateSleeping
				p.wakeAt = now + p.pending.Dur
				c.cur = nil
				continue
			case Exit:
				p.state = stateDead
				c.cur = nil
				continue
			}
		}

		p.buf.Refs = p.buf.Refs[:0]
		p.pos = 0
		p.pending = p.gen.NextSegment(now, &p.buf)
		p.hasPending = true
	}
}

// dispatch picks the next runnable process for cpu. Returns false if none.
func (s *Scheduler) dispatch(c *cpuQueue, cpu int, now uint64) bool {
	var best *Proc
	for _, p := range c.procs {
		if p.state == stateSleeping && p.wakeAt <= now {
			p.state = stateReady
		}
		if p.state != stateReady || p.wakeAt > now {
			continue
		}
		// Oldest wake time first gives round-robin-ish fairness.
		if best == nil || p.wakeAt < best.wakeAt {
			best = p
		}
	}
	if best == nil {
		return false
	}
	best.state = stateRunning
	best.sliceUsed = 0
	c.cur = best
	if s.switchRefs != nil {
		c.swBuf.Refs = c.swBuf.Refs[:0]
		c.swPos = 0
		s.switchRefs(cpu, &c.swBuf)
	}
	return true
}

func (s *Scheduler) someoneElseReady(c *cpuQueue, cur *Proc, now uint64) bool {
	for _, p := range c.procs {
		if p == cur {
			continue
		}
		if p.state == stateReady && p.wakeAt <= now {
			return true
		}
		if p.state == stateSleeping && p.wakeAt <= now {
			return true
		}
	}
	return false
}

func (s *Scheduler) earliestWake(c *cpuQueue, now uint64) (uint64, bool) {
	var min uint64
	found := false
	for _, p := range c.procs {
		var t uint64
		switch p.state {
		case stateSleeping:
			t = p.wakeAt
		case stateReady:
			t = p.wakeAt // woken for the future by a cross-CPU event
		default:
			continue
		}
		if !found || t < min {
			min, found = t, true
		}
	}
	if found && min <= now {
		min = now + 1
	}
	return min, found
}

func (s *Scheduler) allDead(c *cpuQueue) bool {
	for _, p := range c.procs {
		if p.state != stateDead {
			return false
		}
	}
	return true
}

// Procs returns all processes pinned to cpu (diagnostics and tests).
func (s *Scheduler) Procs(cpu int) []*Proc { return s.cpus[cpu].procs }

// DumpState formats the scheduler state for debugging deadlocks.
func (s *Scheduler) DumpState() string {
	out := ""
	for i := range s.cpus {
		out += fmt.Sprintf("cpu%d:", i)
		for _, p := range s.cpus[i].procs {
			out += fmt.Sprintf(" %s=%s@%d", p.Name, p.stateName(), p.wakeAt)
		}
		out += "\n"
	}
	return out
}
