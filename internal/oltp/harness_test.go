package oltp

import (
	"testing"

	"oltpsim/internal/kernel"
	"oltpsim/internal/memref"
	"oltpsim/internal/tpcb"
)

func testCodeFn() *tpcb.CodeFn {
	return &tpcb.CodeFn{Name: "t", Base: codeArenaBase + 4096, SizeLines: 4, PathInstrs: 16, Loopy: true}
}

// pull drives every CPU of the harness in global-time order (the way the
// timing engine does, with a trivial 1-cycle-per-instruction clock) and
// returns the first n references observed on CPU cpu. Driving all CPUs is
// essential: commits on any CPU depend on the log writer running on CPU 0.
func pull(h *Harness, cpu int, n int) []memref.Ref {
	cpus := h.p.CPUs
	clocks := make([]uint64, cpus)
	var out []memref.Ref
	for len(out) < n {
		// Pick the CPU with the smallest clock.
		c := 0
		for i := 1; i < cpus; i++ {
			if clocks[i] < clocks[c] {
				c = i
			}
		}
		r, st, wake := h.Next(c, clocks[c])
		switch st {
		case kernel.StatusRef:
			if c == cpu {
				out = append(out, r)
			}
			clocks[c] += uint64(r.Instrs()) + 1
		case kernel.StatusIdle:
			clocks[c] = wake
		default:
			return out
		}
	}
	return out
}

func TestHarnessStreams(t *testing.T) {
	h := MustNewHarness(TestParams(2))
	refs := pull(h, 0, 20_000)
	if len(refs) != 20_000 {
		t.Fatalf("stream ended early: %d refs", len(refs))
	}
	var ifetch, loads, stores, kern int
	for _, r := range refs {
		switch r.Kind() {
		case memref.IFetch:
			ifetch++
			if r.Instrs() == 0 || r.Instrs() > 16 {
				t.Fatalf("ifetch with %d instrs", r.Instrs())
			}
		case memref.Load:
			loads++
		case memref.Store:
			stores++
		}
		if r.Kernel() {
			kern++
		}
	}
	if ifetch == 0 || loads == 0 || stores == 0 {
		t.Fatalf("mix broken: %d/%d/%d", ifetch, loads, stores)
	}
	if kern == 0 {
		t.Fatal("no kernel references")
	}
}

func TestHarnessCommits(t *testing.T) {
	h := MustNewHarness(TestParams(1))
	now := uint64(0)
	for h.Committed() < 20 {
		r, st, wake := h.Next(0, now)
		switch st {
		case kernel.StatusRef:
			now += uint64(r.Instrs()) + 1
		case kernel.StatusIdle:
			now = wake
		default:
			t.Fatal("stream done before 20 commits")
		}
	}
	if err := h.Engine().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestKernelFraction(t *testing.T) {
	h := MustNewHarness(TestParams(1))
	refs := pull(h, 0, 100_000)
	var kernInstr, instr uint64
	for _, r := range refs {
		if r.Kind() == memref.IFetch {
			instr += uint64(r.Instrs())
			if r.Kernel() {
				kernInstr += uint64(r.Instrs())
			}
		}
	}
	frac := float64(kernInstr) / float64(instr)
	// The paper reports ~25% kernel time for OLTP; the instruction share
	// should be in that neighbourhood.
	if frac < 0.10 || frac > 0.45 {
		t.Fatalf("kernel instruction share %.2f outside plausible band", frac)
	}
}

func TestHomeOfDistribution(t *testing.T) {
	h := MustNewHarness(TestParams(8))
	refs := pull(h, 3, 50_000)
	counts := make([]int, 8)
	data := 0
	for _, r := range refs {
		if r.Kind() == memref.IFetch {
			continue
		}
		counts[h.HomeOf(r.Line())]++
		data++
	}
	// Shared data is round-robin placed: every node must be home to a
	// non-trivial share, near the paper's "1-in-8 chance of finding data
	// locally".
	for n, c := range counts {
		frac := float64(c) / float64(data)
		if frac < 0.04 || frac > 0.30 {
			t.Fatalf("node %d home share %.3f of %d refs; want roughly 1/8", n, frac, data)
		}
	}
	// And the PGA region of a CPU-3 server must be node-local to 3.
	if home := h.HomeOf(h.servers[3*ServersPerCPU].sess.PGABase); home != 3 {
		t.Fatalf("cpu 3 server PGA homed at node %d", home)
	}
}

func TestCodeReplicationMakesIFetchLocal(t *testing.T) {
	p := TestParams(4)
	p.CodeReplication = true
	h := MustNewHarness(p)
	refs := pull(h, 2, 30_000)
	for _, r := range refs {
		if r.Kind() != memref.IFetch {
			continue
		}
		if home := h.HomeOf(r.Line()); home != 2 {
			t.Fatalf("replicated ifetch %#x homed at node %d", r.Addr(), home)
		}
	}
}

func TestNoReplicationSpreadsCode(t *testing.T) {
	h := MustNewHarness(TestParams(4))
	refs := pull(h, 2, 30_000)
	counts := make([]int, 4)
	for _, r := range refs {
		if r.Kind() == memref.IFetch {
			counts[h.HomeOf(r.Line())]++
		}
	}
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	if nonzero < 3 {
		t.Fatalf("unreplicated code touched only %d nodes", nonzero)
	}
}

func TestDeterministicStream(t *testing.T) {
	mk := func() []memref.Ref { return pull(MustNewHarness(TestParams(2)), 0, 5000) }
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at ref %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEmitterCollapse(t *testing.T) {
	var buf kernel.RefBuffer
	e := &Emitter{}
	e.SetOutput(&buf, 0)
	e.Load(100, false)
	e.Load(110, false) // same line (64): collapsed
	e.Load(200, false)
	e.Store(200, false) // load->store same line: kept (needs write rights)
	e.Store(210, false) // store->store same line (192): collapsed
	e.Load(220, false)  // load after store, same line: collapsed (line held M)
	e.Load(300, false)  // new line: kept
	if len(buf.Refs) != 4 {
		t.Fatalf("collapse produced %d refs, want 4", len(buf.Refs))
	}
}

func TestEmitterReplicationOffset(t *testing.T) {
	var buf kernel.RefBuffer
	e := &Emitter{replicate: true, arenaBase: codeArenaBase, arenaSize: codeArenaSize}
	e.SetOutput(&buf, 3)
	fn := testCodeFn()
	e.Code(fn)
	want := fn.Base + 3*codeArenaSize
	if buf.Refs[0].Addr() != want {
		t.Fatalf("replicated code at %#x, want %#x", buf.Refs[0].Addr(), want)
	}
	// Node 0 keeps the original address.
	var buf0 kernel.RefBuffer
	e.SetOutput(&buf0, 0)
	e.Code(fn)
	if buf0.Refs[0].Addr() != fn.Base {
		t.Fatalf("node 0 code at %#x", buf0.Refs[0].Addr())
	}
}

func TestParamsValidate(t *testing.T) {
	p := TestParams(0)
	if err := p.Validate(); err == nil {
		t.Fatal("0 CPUs accepted")
	}
}

func TestGroupCommitBatches(t *testing.T) {
	h := MustNewHarness(TestParams(1))
	now := uint64(0)
	for h.Committed() < 50 {
		r, st, wake := h.Next(0, now)
		switch st {
		case kernel.StatusRef:
			now += uint64(r.Instrs()) + 1
		case kernel.StatusIdle:
			now = wake
		}
	}
	// The log writer gathers the redo once per flush.
	flushes := h.eng.Log().Stats.Gathers
	if flushes == 0 {
		t.Fatal("log writer never flushed")
	}
	// Group commit: strictly fewer flushes than commits.
	if flushes >= h.Committed() {
		t.Fatalf("no batching: %d flushes for %d commits", flushes, h.Committed())
	}
}
