package experiments

import (
	"reflect"
	"testing"

	"oltpsim/internal/cli"
	"oltpsim/internal/coherence"
	"oltpsim/internal/core"
	"oltpsim/internal/kernel"
	"oltpsim/internal/memref"
	"oltpsim/internal/oltp"
	"oltpsim/internal/stats"
)

// The paper's Section 1 motivates OLTP by contrast: decision support (DSS)
// is "relatively insensitive to memory system performance". The contrast
// runs as the committed scan-only profile examples/scenarios/dss.json
// through the one OLTP harness, and these tests hold that profile to the
// claims: L2 organization barely matters, integration helps less than it
// helps OLTP, and the scanned account blocks are read-only and never dirty
// in another cache.

// dssOptions is the quick protocol under the committed DSS profile: 100
// warmup transactions, then the profile's 400 scans.
func dssOptions(t *testing.T) Options {
	t.Helper()
	sched, err := cli.LoadSchedule("../../examples/scenarios/dss.json")
	if err != nil {
		t.Fatal(err)
	}
	o := QuickOptions()
	o.WarmupTxns = 100
	o.Scenario = sched
	return o
}

// stepRecorder is a core.Workload over an OLTP harness that keeps the
// reference each Step pulled. It implements neither core.RefSource nor
// core.CommitSource, so the system calls Next on every step.
type stepRecorder struct {
	h    *oltp.Harness
	last memref.Ref
	st   kernel.Status
}

func (w *stepRecorder) Next(cpu int, now uint64) (memref.Ref, kernel.Status, uint64) {
	r, st, wake := w.h.Next(cpu, now)
	w.last, w.st = r, st
	return r, st, wake
}

func (w *stepRecorder) HomeOf(line uint64) int { return w.h.HomeOf(line) }
func (w *stepRecorder) Committed() uint64      { return w.h.Committed() }

// dssRun is one measured run of the profile with its account-block tallies.
type dssRun struct {
	res stats.RunResult
	// acctMiss counts the directory transactions on account-block lines by
	// category.
	acctMiss [coherence.NumCategories]uint64
	// stores and acctStores count the measured stores, and those that land
	// in account blocks.
	stores, acctStores uint64
	loads, ifetches    uint64
}

// directoryOps sums the directory's reads and writes per category.
func directoryOps(s *coherence.Stats) (ops [coherence.NumCategories]uint64) {
	for c := range ops {
		ops[c] = s.Reads[c] + s.Writes[c]
	}
	return ops
}

// runDSSRecorded runs cfg under the profile step by step, with Execute's
// warmup and reset, and attributes every measured directory transaction
// and store to the account blocks [BlockAddr(acct0, 0),
// BlockAddr(acct0+AccountBlocks, 0)), acct0 = BranchBlocks+TellerBlocks.
func runDSSRecorded(t *testing.T, o Options, cfg core.Config) dssRun {
	t.Helper()
	w := &stepRecorder{h: oltp.MustNewHarness(o.Params(cfg))}
	sys := core.MustNewSystem(cfg, w)
	db := w.h.Engine().Config()
	acct0 := int32(db.BranchBlocks() + db.TellerBlocks())
	pool := w.h.Engine().Pool()
	lo, hi := pool.BlockAddr(acct0, 0), pool.BlockAddr(acct0+int32(db.AccountBlocks()), 0)

	sys.RunUntil(o.WarmupTxns)
	sys.ResetStats()
	base := sys.Committed()
	end := base + o.MeasuredTxns()
	var run dssRun
	dir := &sys.Directory().Stats
	for sys.Committed() < end {
		before := directoryOps(dir)
		if !sys.Step() {
			t.Fatal("workload finished before the profile did")
		}
		if w.st != kernel.StatusRef {
			continue
		}
		addr := w.last.Addr()
		inAcct := addr >= lo && addr < hi
		switch w.last.Kind() {
		case memref.Store:
			run.stores++
			if inAcct {
				run.acctStores++
			}
		case memref.Load:
			run.loads++
		case memref.IFetch:
			run.ifetches++
		}
		if !inAcct {
			continue
		}
		after := directoryOps(dir)
		for c := range after {
			run.acctMiss[c] += after[c] - before[c]
		}
	}
	run.res = sys.Collect(cfg.Name, sys.Committed()-base)
	return run
}

// TestDSSInsensitivity is the paper's framing claim: DSS barely cares about
// L2 organization, and integration helps it much less than OLTP.
func TestDSSInsensitivity(t *testing.T) {
	o := dssOptions(t)
	run := func(cfg core.Config) float64 {
		res := o.Run(cfg)
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
	t.Logf("1M1w/8M4w %.2f, Base 8M1w/Full 2M8w %.2f", small/big, gain)
}

// TestDSSNoDirtySharing: scans never make a 3-hop miss on the account
// blocks they read, though their lines do come from remote homes. Scans
// still pin buffer headers and take latches like any transaction, so that
// shared metadata migrates and the whole run has 3-hop misses elsewhere.
func TestDSSNoDirtySharing(t *testing.T) {
	o, cfg := dssOptions(t), core.BaseConfig(4, 2*core.MB, 8)
	run := runDSSRecorded(t, o, cfg)
	if want := o.Run(cfg); !reflect.DeepEqual(run.res, want) {
		t.Fatal("the recorded run differs from Options.Run's")
	}
	dirty := run.acctMiss[coherence.CatRemoteDirty] + run.acctMiss[coherence.CatRemoteDirtyRAC]
	if dirty != 0 {
		t.Fatalf("scans made %d dirty 3-hop misses on account blocks", dirty)
	}
	if run.acctMiss[coherence.CatRemoteClean] == 0 {
		t.Fatal("no 2-hop misses on account blocks despite round-robin placement")
	}
	m := &run.res.Miss
	t.Logf("account blocks: %d 2-hop, 0 3-hop; whole run: %d 3-hop of %d misses (%.1f%%)",
		run.acctMiss[coherence.CatRemoteClean], m.RemoteDirty(), m.Total(),
		100*float64(m.RemoteDirty())/float64(max(1, m.Total())))
}

// TestScanStreamShape: a scan's stream fetches code and loads rows, and
// never writes the account blocks it scans.
func TestScanStreamShape(t *testing.T) {
	run := runDSSRecorded(t, dssOptions(t), core.BaseConfig(1, 1*core.MB, 1))
	if run.loads == 0 || run.ifetches == 0 {
		t.Fatal("degenerate scan stream")
	}
	if run.acctStores != 0 {
		t.Fatalf("scans stored to account blocks: %d of %d stores", run.acctStores, run.stores)
	}
	if run.res.Txns == 0 {
		t.Fatal("no scans completed")
	}
	t.Logf("%d of %d stores in account blocks; %d loads", run.acctStores, run.stores, run.loads)
}
