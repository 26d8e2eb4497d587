package dss

import (
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/kernel"
	"oltpsim/internal/memref"
)

func TestParamsValidate(t *testing.T) {
	p := TestParams(0)
	if err := p.Validate(); err == nil {
		t.Fatal("0 CPUs accepted")
	}
	p = TestParams(8)
	p.CoresPerChip = 3
	if err := p.Validate(); err == nil {
		t.Fatal("non-dividing cores accepted")
	}
	if err := TestParams(8).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScanStreamShape(t *testing.T) {
	h := MustNewHarness(TestParams(1))
	var loads, stores, ifetch int
	now := uint64(0)
	for i := 0; i < 20_000; i++ {
		r, st, wake := h.Next(0, now)
		switch st {
		case kernel.StatusRef:
			switch r.Kind() {
			case memref.IFetch:
				ifetch++
			case memref.Load:
				loads++
			case memref.Store:
				stores++
			}
			now += uint64(r.Instrs()) + 1
		case kernel.StatusIdle:
			now = wake
		default:
			t.Fatal("scan stream ended")
		}
	}
	if loads == 0 || ifetch == 0 {
		t.Fatal("degenerate scan stream")
	}
	// Scans are read-dominated: stores only aggregate.
	if stores*10 > loads {
		t.Fatalf("too many stores for a scan: %d stores vs %d loads", stores, loads)
	}
	if h.Committed() == 0 {
		t.Fatal("no scan units completed")
	}
}

// TestDSSInsensitivity is the paper's framing claim: DSS barely cares about
// L2 organization, and integration helps it much less than OLTP.
func TestDSSInsensitivity(t *testing.T) {
	run := func(cfg core.Config) float64 {
		p := TestParams(cfg.Processors)
		p.CoresPerChip = cfg.CoresPerChip
		sys := core.MustNewSystem(cfg, MustNewHarness(p))
		res := sys.Run(50, 300)
		return res.CyclesPerTxn()
	}

	// L2 organization insensitivity (uniprocessor): 1M 1-way vs 8M 4-way
	// within a few percent.
	small := run(core.BaseConfig(1, 1*core.MB, 1))
	big := run(core.BaseConfig(1, 8*core.MB, 4))
	if ratio := small / big; ratio > 1.15 {
		t.Fatalf("DSS sensitive to L2 organization: 1M1w/8M4w = %.2f", ratio)
	}

	// Integration gain well below OLTP's ~1.35x.
	base := run(core.BaseConfig(4, 8*core.MB, 1))
	full := run(core.FullConfig(4, 2*core.MB, 8))
	gain := base / full
	if gain < 1.0 || gain > 1.25 {
		t.Fatalf("DSS integration gain %.2f; expected modest (paper: DSS relatively insensitive)", gain)
	}
}

// TestDSSNoDirtySharing: scans never create 3-hop misses.
func TestDSSNoDirtySharing(t *testing.T) {
	cfg := core.BaseConfig(4, 2*core.MB, 8)
	sys := core.MustNewSystem(cfg, MustNewHarness(TestParams(4)))
	res := sys.Run(20, 200)
	if res.Miss.RemoteDirty() > res.Miss.Total()/100 {
		t.Fatalf("scan workload produced %d dirty 3-hop misses of %d",
			res.Miss.RemoteDirty(), res.Miss.Total())
	}
	if res.Miss.RemoteClean() == 0 {
		t.Fatal("no 2-hop misses despite round-robin placement")
	}
}
