package core

import (
	"testing"

	"oltpsim/internal/cache"
	"oltpsim/internal/memref"
	"oltpsim/internal/oltp"
)

func cmpCfg(cores, perChip int) Config {
	cfg := FullConfig(cores, 2*MB, 8)
	cfg.CoresPerChip = perChip
	return cfg
}

func TestCMPValidation(t *testing.T) {
	cfg := cmpCfg(8, 3) // 8 % 3 != 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("non-dividing CoresPerChip accepted")
	}
	if err := cmpCfg(8, 0).Validate(); err == nil {
		t.Fatal("CoresPerChip 0 accepted")
	}
	if err := cmpCfg(8, 2).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCMPSharedL2 checks constructive sharing: a line written by core 0 is
// an L2 hit for core 1 on the same chip — no directory transaction, no
// remote miss.
func TestCMPSharedL2(t *testing.T) {
	src := newScript(4) // 4 cores on 2 chips
	src.add(0, memref.New(4096, memref.Store, false, false, 0))
	src.add(1, memref.New(4096, memref.Load, false, false, 0)) // same chip as 0
	cfg := cmpCfg(4, 2)
	sys := runScript(t, cfg, src)
	if sys.Chips() != 2 {
		t.Fatalf("chips = %d", sys.Chips())
	}
	res := sys.Collect("t", 1)
	// One miss total (core 0's cold store); core 1's read hits the shared L2.
	if got := res.Miss.Total(); got != 1 {
		t.Fatalf("misses %d, want 1 (second core should hit the shared L2)", got)
	}
	if res.Miss.RemoteDirty() != 0 {
		t.Fatal("intra-chip sharing produced a remote dirty miss")
	}
	if sys.Model(1).Breakdown().L2Hit == 0 {
		t.Fatal("core 1's read was not an L2 hit")
	}
}

// TestCMPCrossChipStillRemote: cores on different chips still communicate
// through the directory.
func TestCMPCrossChipStillRemote(t *testing.T) {
	src := newScript(4)
	src.add(0, memref.New(4096, memref.Store, false, false, 0)) // chip 0
	src.add(2, memref.New(4096, memref.Load, false, false, 0))  // chip 1
	sys := runScript(t, cmpCfg(4, 2), src)
	res := sys.Collect("t", 1)
	if res.Miss.RemoteDirty() != 1 {
		t.Fatalf("cross-chip dirty read: remote dirty misses %d, want 1", res.Miss.RemoteDirty())
	}
}

// TestCMPSiblingWriteInvariant: two cores of one chip alternately writing a
// line must never both hold it Modified in their L1s.
func TestCMPSiblingWriteInvariant(t *testing.T) {
	src := newScript(2)
	for i := 0; i < 50; i++ {
		src.add(0, memref.New(4096, memref.Store, false, false, 0))
		src.add(1, memref.New(4096, memref.Store, false, false, 0))
	}
	sys := runScript(t, cmpCfg(2, 2), src)
	n := sys.nodes[0]
	holders := 0
	for _, co := range n.cores {
		if st := co.l1d.Probe(4096); st == cache.Modified || st == cache.Exclusive {
			holders++
		}
	}
	if holders > 1 {
		t.Fatalf("%d sibling L1s hold the line exclusively", holders)
	}
}

// TestCMPDirtySiblingReadMergesToL2: core 0 dirties a line in its L1
// (silently via E); core 1's read must see the dirtiness merged into the
// shared L2 and both end up Shared.
func TestCMPDirtySiblingReadMergesToL2(t *testing.T) {
	src := newScript(2)
	src.add(0, memref.New(4096, memref.Load, false, false, 0))  // E grant
	src.add(0, memref.New(4096, memref.Store, false, false, 0)) // silent E->M
	// Pad core 1's clock with busy work so its read executes after core 0's
	// store in the global time order.
	for i := 0; i < 10; i++ {
		src.add(1, memref.New(1<<30, memref.IFetch, false, false, 16))
	}
	src.add(1, memref.New(4096, memref.Load, false, false, 0))
	sys := runScript(t, cmpCfg(2, 2), src)
	if st := sys.nodes[0].l2.Probe(4096); st != cache.Modified {
		t.Fatalf("chip L2 state %v, want Modified (dirtiness merged)", st)
	}
	if st := sys.nodes[0].cores[0].l1d.Probe(4096); st == cache.Modified || st == cache.Exclusive {
		t.Fatalf("writer core still exclusive (%v) after sibling read", st)
	}
}

// TestCMPEndToEnd runs the OLTP workload on a 2-chip x 2-core machine and
// checks the paper-conclusion direction: CMP cores sharing an L2 turn some
// inter-processor communication into L2 hits, so per-transaction remote
// traffic drops versus 4 single-core chips.
func TestCMPEndToEnd(t *testing.T) {
	opt := func(perChip int) (Config, oltp.Params) {
		cfg := FullConfig(4, 2*MB, 8)
		cfg.CoresPerChip = perChip
		p := oltp.TestParams(4)
		p.CoresPerChip = perChip
		return cfg, p
	}

	run := func(perChip int) (cyclesPerTxn float64, remotePerTxn float64) {
		cfg, p := opt(perChip)
		sys := MustNewSystem(cfg, oltp.MustNewHarness(p))
		res := sys.Run(50, 150)
		return res.CyclesPerTxn(),
			float64(res.Miss.RemoteClean()+res.Miss.RemoteDirty()) / float64(res.Txns)
	}

	_, remoteSMP := run(1)
	cmpCyc, remoteCMP := run(2)
	if cmpCyc <= 0 {
		t.Fatal("CMP run degenerate")
	}
	if remoteCMP >= remoteSMP {
		t.Fatalf("CMP remote misses/txn %.1f not below SMP %.1f (shared L2 should absorb intra-chip sharing)",
			remoteCMP, remoteSMP)
	}
}
