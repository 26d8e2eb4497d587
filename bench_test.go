package oltpsim

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"oltpsim/internal/cache"
	"oltpsim/internal/coherence"
	"oltpsim/internal/core"
	"oltpsim/internal/experiments"
	"oltpsim/internal/lint"
	"oltpsim/internal/memref"
	"oltpsim/internal/oltp"
	"oltpsim/internal/server"
	"oltpsim/internal/sim"
	"oltpsim/internal/tpcb"
)

// benchOptions returns the measurement protocol for the figure benchmarks.
// Full paper fidelity (40-branch database, 2000 measured transactions) runs
// in a couple of seconds per configuration; `go test -short -bench=.`
// switches to the scaled-down database.
func benchOptions(b *testing.B) experiments.Options {
	if testing.Short() {
		o := experiments.QuickOptions()
		o.WarmupTxns, o.MeasureTxns = 300, 600
		return o
	}
	o := experiments.DefaultOptions()
	o.WarmupTxns = 3000
	return o
}

// benchFigure runs a figure once per iteration, logs the paper-format rows,
// and reports the bars as benchmark metrics so regressions are visible in
// benchstat output.
func benchFigure(b *testing.B, run func(experiments.Options) experiments.Figure, misses bool) {
	o := benchOptions(b)
	var fig experiments.Figure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = run(o)
	}
	b.StopTimer()
	b.Log("\n" + fig.RenderExec())
	if misses {
		b.Log("\n" + fig.RenderMisses())
	}
	b.Log("\n" + fig.RenderDetail())
	for i := range fig.Bars {
		b.ReportMetric(fig.NormExec(i), sanitizeMetric(fig.Bars[i].Name)+"-exec")
	}
}

func sanitizeMetric(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '/':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkFig02BaseParams prints the base system parameters (paper Figure
// 2) for the record.
func BenchmarkFig02BaseParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = BaseConfig(8, 8*MB, 1)
	}
	cfg := BaseConfig(8, 8*MB, 1)
	b.Logf("\nFigure 2 — Base system parameters:\n"+
		"  processor speed: 1 GHz (cycles == ns)\n"+
		"  line size: %d B\n  L1 I/D: %d KB %d-way each\n  L2: %d MB %d-way\n  processors: %d\n",
		memref.LineBytes, core.L1Bytes/KB, core.L1Ways, cfg.L2SizeBytes/MB, cfg.L2Assoc, cfg.Processors)
}

// BenchmarkFig03LatencyTable regenerates the latency table (paper Figure 3).
func BenchmarkFig03LatencyTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = FigureThree()
	}
	out := "\nFigure 3 — Memory latencies (cycles @ 1 GHz):\n"
	for _, row := range FigureThree() {
		out += fmt.Sprintf("  %-28s L2Hit %3d  Local %3d  Remote %3d  Dirty %3d\n",
			row.Label, row.Lat.L2Hit, row.Lat.Local, row.Lat.Remote, row.Lat.RemoteDirty)
	}
	b.Log(out)
}

// BenchmarkFig05OffChipL2Uni regenerates paper Figure 5.
func BenchmarkFig05OffChipL2Uni(b *testing.B) { benchFigure(b, experiments.Fig05, true) }

// BenchmarkFig06OffChipL2MP regenerates paper Figure 6.
func BenchmarkFig06OffChipL2MP(b *testing.B) { benchFigure(b, experiments.Fig06, true) }

// BenchmarkFig07OnChipL2Uni regenerates paper Figure 7.
func BenchmarkFig07OnChipL2Uni(b *testing.B) { benchFigure(b, experiments.Fig07, true) }

// BenchmarkFig08OnChipL2MP regenerates paper Figure 8.
func BenchmarkFig08OnChipL2MP(b *testing.B) { benchFigure(b, experiments.Fig08, true) }

// BenchmarkFig10IntegrationUni regenerates the uniprocessor half of Figure 10.
func BenchmarkFig10IntegrationUni(b *testing.B) { benchFigure(b, experiments.Fig10Uni, false) }

// BenchmarkFig10IntegrationMP regenerates the 8-processor half of Figure 10.
func BenchmarkFig10IntegrationMP(b *testing.B) { benchFigure(b, experiments.Fig10MP, false) }

// BenchmarkFig11RACMisses regenerates paper Figure 11 (RAC miss mix).
func BenchmarkFig11RACMisses(b *testing.B) { benchFigure(b, experiments.Fig11, true) }

// BenchmarkFig12RACPerfSmall regenerates the 1 MB part of Figure 12.
func BenchmarkFig12RACPerfSmall(b *testing.B) { benchFigure(b, experiments.Fig12Small, false) }

// BenchmarkFig12RACPerfLarge regenerates the 2 MB part of Figure 12.
func BenchmarkFig12RACPerfLarge(b *testing.B) { benchFigure(b, experiments.Fig12Large, false) }

// BenchmarkFig13OutOfOrderUni regenerates the uniprocessor half of Figure 13.
func BenchmarkFig13OutOfOrderUni(b *testing.B) { benchFigure(b, experiments.Fig13Uni, false) }

// BenchmarkFig13OutOfOrderMP regenerates the 8-processor half of Figure 13.
func BenchmarkFig13OutOfOrderMP(b *testing.B) { benchFigure(b, experiments.Fig13MP, false) }

// BenchmarkMissClassification quantifies the Section 3/8 claim directly:
// the misses an 8 MB direct-mapped cache suffers are mostly conflicts, which
// the classifier proves against a same-capacity fully-associative shadow.
func BenchmarkMissClassification(b *testing.B) {
	o := benchOptions(b)
	var cold, capacity, conflict uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := BaseConfig(1, 8*MB, 1)
		cfg.Classify = true
		h := oltp.MustNewHarness(o.Params(cfg))
		sys := MustNewSystem(cfg, h)
		sys.Run(o.WarmupTxns, o.MeasureTxns)
		cl := sys.Classifier()
		cold, capacity, conflict = cl.Counts[cache.Cold], cl.Counts[cache.Capacity], cl.Counts[cache.Conflict]
	}
	b.StopTimer()
	total := cold + capacity + conflict
	if total > 0 {
		b.Logf("\n8M direct-mapped L2 miss classes: cold %.1f%%  capacity %.1f%%  conflict %.1f%%",
			100*float64(cold)/float64(total), 100*float64(capacity)/float64(total), 100*float64(conflict)/float64(total))
		b.ReportMetric(100*float64(conflict)/float64(total), "conflict-%")
	}
}

// --- Runner benchmarks: serial vs. parallel figure regeneration -------------

// benchRunnerWorkers times one multi-bar figure (the 9-bar Figure 5 sweep)
// with a fixed worker-pool width; compare the Serial and Parallel variants
// with benchstat to see the fan-out speedup on your host.
func benchRunnerWorkers(b *testing.B, workers int) {
	o := benchOptions(b)
	o.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig05(o)
	}
}

// BenchmarkRunnerSerial runs the Figure 5 sweep one bar at a time.
func BenchmarkRunnerSerial(b *testing.B) { benchRunnerWorkers(b, 1) }

// BenchmarkRunnerParallel runs the same sweep across GOMAXPROCS workers; the
// results are bit-identical to the serial run (TestParallelMatchesSerial),
// only the wall clock differs.
func BenchmarkRunnerParallel(b *testing.B) { benchRunnerWorkers(b, 0) }

// --- Ablation benchmarks: design choices DESIGN.md calls out ---------------

// BenchmarkAblationMigratory measures the migratory-sharing optimization's
// effect on the 8-processor Base configuration.
func BenchmarkAblationMigratory(b *testing.B) {
	o := benchOptions(b)
	var on, off float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := BaseConfig(8, 8*MB, 1)
		rOn := o.Run(cfg)
		on = rOn.CyclesPerTxn()
		cfg.NoMigratory = true
		cfg.Name = "Base no-migratory"
		rOff := o.Run(cfg)
		off = rOff.CyclesPerTxn()
	}
	b.StopTimer()
	b.Logf("\nmigratory on %.0f cycles/txn, off %.0f (%.2fx)", on, off, off/on)
	b.ReportMetric(off/on, "slowdown-without-migratory")
}

// BenchmarkAblationVictimBuffer measures the 21364-style L2 victim buffer.
func BenchmarkAblationVictimBuffer(b *testing.B) {
	o := benchOptions(b)
	var without, with float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := IntegratedL2Config(1, 2*MB, 1, OnChipSRAM) // direct-mapped: conflicts to catch
		rWithout := o.Run(cfg)
		without = rWithout.CyclesPerTxn()
		cfg.VictimBuffers = 8
		cfg.Name = "L2 2M1w +VB"
		rWith := o.Run(cfg)
		with = rWith.CyclesPerTxn()
	}
	b.StopTimer()
	b.Logf("\nvictim buffer: without %.0f, with %.0f cycles/txn (%.2fx)", without, with, without/with)
	b.ReportMetric(without/with, "victim-buffer-speedup")
}

// BenchmarkAblationL2HitLatency sweeps the integrated L2 hit latency to
// show how strongly uniprocessor OLTP depends on it (the paper's Section 3
// design argument).
func BenchmarkAblationL2HitLatency(b *testing.B) {
	o := benchOptions(b)
	out := "\nL2 hit latency sweep (uniprocessor, 2M8w integrated):\n"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = "\nL2 hit latency sweep (uniprocessor, 2M8w integrated):\n"
		for _, hit := range []uint32{10, 15, 20, 25, 30} {
			cfg := IntegratedL2Config(1, 2*MB, 8, OnChipSRAM)
			lt := cfg.Latencies()
			lt.L2Hit = hit
			cfg.LatencyOverride = &lt
			cfg.Name = fmt.Sprintf("hit=%d", hit)
			res := o.Run(cfg)
			out += fmt.Sprintf("  L2 hit %2d cycles -> %.0f cycles/txn\n", hit, res.CyclesPerTxn())
		}
	}
	b.StopTimer()
	b.Log(out)
}

// BenchmarkExtensionCMP explores the paper's stated next step ("chip
// multiprocessing... should also be effective"): the same 8 cores arranged
// as 8x1, 4x2, and 2x4 chips, each chip fully integrated with a shared 2 MB
// 8-way L2. Cores sharing an L2 absorb intra-chip communication misses.
func BenchmarkExtensionCMP(b *testing.B) {
	o := benchOptions(b)
	type row struct {
		name   string
		cyc    float64
		remote float64
	}
	var rows []row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, perChip := range []int{1, 2, 4} {
			cfg := FullIntegrationConfig(8, 2*MB, 8)
			cfg.CoresPerChip = perChip
			cfg.Name = fmt.Sprintf("%dx%d", 8/perChip, perChip)
			res := o.Run(cfg)
			rows = append(rows, row{cfg.Name,
				res.CyclesPerTxn(),
				float64(res.Miss.RemoteClean()+res.Miss.RemoteDirty()) / float64(res.Txns)})
		}
	}
	b.StopTimer()
	out := "\nCMP arrangements of 8 cores (chips x cores/chip):\n"
	for _, r := range rows {
		out += fmt.Sprintf("  %-4s %8.0f cycles/txn  %6.1f remote misses/txn\n", r.name, r.cyc, r.remote)
	}
	b.Log(out)
	if len(rows) == 3 {
		b.ReportMetric(rows[0].cyc/rows[1].cyc, "4x2-speedup")
		b.ReportMetric(rows[0].cyc/rows[2].cyc, "2x4-speedup")
	}
}

// BenchmarkExtensionDSS measures the paper's framing contrast: decision
// support is "relatively insensitive to memory system performance" while
// OLTP is not. Same machine ladder, same engine, under the scan-only
// profile examples/scenarios/dss.json instead of the TPC-B mix.
func BenchmarkExtensionDSS(b *testing.B) {
	o := benchOptions(b)
	sched, err := LoadSchedule("examples/scenarios/dss.json")
	if err != nil {
		b.Fatal(err)
	}
	o.Scenario = sched
	cfgs := []Config{BaseConfig(8, 8*MB, 1), FullIntegrationConfig(8, 2*MB, 8)}
	var res []Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = o.RunMany(cfgs)
	}
	b.StopTimer()
	base, full := &res[0], &res[1]
	gain := base.CyclesPerTxn() / full.CyclesPerTxn()
	b.Logf("\nDSS scan workload, 8 CPUs: Base %.0f -> Full %.0f cycles/scan (%.2fx; OLTP gets ~1.35x)\n"+
		"DSS 3-hop misses: %d of %d total (OLTP: about half)",
		base.CyclesPerTxn(), full.CyclesPerTxn(), gain,
		full.Miss.RemoteDirty(), full.Miss.Total())
	b.ReportMetric(gain, "dss-integration-speedup")
}

// BenchmarkExtensionScaling sweeps the machine size for Base and Full
// integration. Communication misses grow with processor count (more sharers
// for the same hot metadata), so the integration gain — driven by the dirty
// 3-hop latency — grows with it; the paper only reports the 8-CPU point.
func BenchmarkExtensionScaling(b *testing.B) {
	o := benchOptions(b)
	type row struct {
		procs      int
		base, full float64
		dirtyShare float64
	}
	var rows []row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, procs := range []int{2, 4, 8, 16} {
			rb := o.Run(BaseConfig(procs, 8*MB, 1))
			rf := o.Run(FullIntegrationConfig(procs, 2*MB, 8))
			rows = append(rows, row{procs, rb.CyclesPerTxn(), rf.CyclesPerTxn(),
				float64(rb.Miss.RemoteDirty()) / float64(rb.Miss.Total())})
		}
	}
	b.StopTimer()
	out := "\nscaling: procs  Base cyc/txn  Full cyc/txn  gain   3-hop share (Base)\n"
	for _, r := range rows {
		out += fmt.Sprintf("  %5d %12.0f %13.0f %6.2fx %8.0f%%\n",
			r.procs, r.base, r.full, r.base/r.full, 100*r.dirtyShare)
	}
	b.Log(out)
}

// --- Microbenchmarks: substrate performance ---------------------------------

// BenchmarkCacheAccess measures the raw tag-store throughput that bounds
// simulation speed.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.Config{Name: "b", SizeBytes: 2 * MB, Assoc: 8})
	r := sim.NewRNG(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1<<22)) * 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := addrs[i&4095]
		if c.Access(line) == cache.Invalid {
			c.Insert(line, cache.Shared)
		}
	}
}

// BenchmarkDirectoryReadWrite measures protocol transaction throughput.
func BenchmarkDirectoryReadWrite(b *testing.B) {
	p := benchPeers{}
	d := coherence.New(8, func(line uint64) int { return int(line>>6) % 8 }, p)
	r := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := uint64(r.Intn(65536)) * 64
		node := r.Intn(8)
		if i%3 == 0 {
			d.Write(line, node)
		} else {
			d.Read(line, node)
		}
	}
}

type benchPeers struct{}

func (benchPeers) InvalidatePeer(node int, line uint64) bool { return true }
func (benchPeers) DowngradePeer(node int, line uint64) bool  { return true }

// BenchmarkTPCBTransaction measures the functional database engine alone
// (no timing model): transactions per second of pure engine work.
func BenchmarkTPCBTransaction(b *testing.B) {
	cfg := tpcb.SmallConfig()
	e := tpcb.MustNewEngine(cfg, &tpcb.BumpAllocator{}, tpcb.NopEmitter{}, 1)
	e.Prewarm()
	sess := e.NewSession(0, 1<<40)
	r := sim.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ExecTxn(sess, e.DrawTxn(r))
		target, _ := e.LogWriterGather()
		e.LogWriterComplete(target)
		e.PostCommit(sess)
	}
}

// BenchmarkHarnessBuild times building the paper-scale workload of an
// 8-CPU machine: the engine over the 40-branch database, prewarmed to
// steady state, with its address space and 64 server processes. Every
// figure bar, oltpsim run and server job configuration pays it once, so
// cmd/benchdiff guards its allocations, which must not grow with the
// database's 4,000,000 accounts.
func BenchmarkHarnessBuild(b *testing.B) {
	p := experiments.DefaultOptions().Params(BaseConfig(8, 8*MB, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := oltp.NewHarness(p); err != nil {
			b.Fatal(err)
		}
	}
}

// stepRefs advances sys until it has retired n more references. A Step
// call that only advances an idle core retires no reference, so benchmarks
// that want ns-per-reference count retired references through Steps()
// instead of Step calls.
func stepRefs(sys *System, n uint64) {
	target := sys.Steps() + n
	for sys.Steps() < target && sys.Step() {
	}
}

// BenchmarkSimulationThroughput measures end-to-end simulated references per
// second on the full machine (8 CPUs, Base), the number that governs how
// long figure regeneration takes. ns/op is ns per retired reference.
// The steady-state loop must not allocate: ReportAllocs makes allocs/op
// part of the default output, and cmd/benchdiff fails CI if it ever rises
// above the committed zero. Run with a large -benchtime (e.g. 2000000x) for
// meaningful ns/op; at small iteration counts warmup effects dominate.
func BenchmarkSimulationThroughput(b *testing.B) {
	o := experiments.QuickOptions()
	cfg := BaseConfig(8, 8*MB, 1)
	h := oltp.MustNewHarness(o.Params(cfg))
	sys := MustNewSystem(cfg, h)
	b.ReportAllocs()
	b.ResetTimer()
	stepRefs(sys, uint64(b.N))
}

// BenchmarkStepScaling measures per-reference stepping cost as the machine
// widens from the paper's 8 nodes to 128. With the loser-tree event queue,
// earliest-core selection costs one compare per tree level, O(log P),
// instead of the former O(P) scan, so ns/op (ns per retired reference)
// should grow far slower than node count; cmd/benchdiff tracks the large
// shapes to keep that sub-linear.
func BenchmarkStepScaling(b *testing.B) {
	for _, procs := range []int{8, 32, 64, 128} {
		b.Run(fmt.Sprintf("nodes=%d", procs), func(b *testing.B) {
			o := experiments.QuickOptions()
			cfg := BaseConfig(procs, 8*MB, 1)
			h := oltp.MustNewHarness(o.Params(cfg))
			sys := MustNewSystem(cfg, h)
			b.ReportAllocs()
			b.ResetTimer()
			stepRefs(sys, uint64(b.N))
		})
	}
}

// BenchmarkStep64Serial times a whole warm+measure run of the 64-node full
// configuration, the widest machine the guarded benchmarks step end to end.
func BenchmarkStep64Serial(b *testing.B) {
	o := experiments.QuickOptions()
	o.WarmupTxns, o.MeasureTxns = 200, 400
	cfg := FullIntegrationConfig(64, 2*MB, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.Run(cfg)
	}
}

// BenchmarkJobThroughput measures one job's end-to-end trip through the
// simulation service: HTTP submission, queue admission, worker execution of
// a quick single-machine run, and the SSE stream closing on completion.
// The number is the whole trip, not the service layer alone: it includes
// the job's harness construction and its 90-transaction simulation.
// cmd/benchdiff guards it like the rest.
func BenchmarkJobThroughput(b *testing.B) {
	srv, err := server.New(server.Config{
		DataDir:    b.TempDir(),
		Workers:    1,
		QueueDepth: 4,
		Now:        time.Now,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	const spec = `{
		"name": "bench",
		"machines": [{"procs": 1, "level": "base", "l2": "1M", "assoc": 1}],
		"warmup_txns": 30,
		"measure_txns": 60,
		"quick": true,
		"checkpoint_every": 0
	}`
	oneJob := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", strings.NewReader(spec)))
		if rec.Code != 202 {
			b.Fatalf("POST /jobs: status %d: %s", rec.Code, rec.Body)
		}
		var st struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			b.Fatal(err)
		}
		// The SSE handler returns only once the job reaches a terminal
		// state, so the stream doubles as the completion barrier.
		stream := httptest.NewRecorder()
		srv.ServeHTTP(stream, httptest.NewRequest("GET", "/jobs/"+st.ID+"/stream", nil))
		if !strings.Contains(stream.Body.String(), "event: done") {
			b.Fatalf("job %s did not finish: %s", st.ID, stream.Body)
		}
	}
	// One unmeasured job first: process-wide lazy initialization (JSON
	// reflection caches, HTTP routing tables) otherwise lands on the first
	// measured iteration and makes allocs/op noisy at -benchtime 1x.
	oneJob()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oneJob()
	}
}

// BenchmarkCheckpointWrite times one checkpoint write of the job server's
// 8-CPU Full 2M8w quick job: the container of the machine after its
// 150-transaction warmup, built and streamed to io.Discard as the server
// streams it to its file, the checkpoint every checkpointed job writes. No
// other guarded benchmark writes one (JobThroughput runs with
// checkpoint_every 0). B/op is what building and streaming the container
// allocates, and ckpt-bytes the container's size.
func BenchmarkCheckpointWrite(b *testing.B) {
	o := experiments.QuickOptions()
	cfg := FullIntegrationConfig(8, 2*MB, 8)
	sys := MustNewSystem(cfg, oltp.MustNewHarness(o.Params(cfg)))
	sys.RunUntil(o.WarmupTxns)
	var size int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck, err := o.WarmedCheckpoint(sys)
		if err != nil {
			b.Fatal(err)
		}
		if size, err = ck.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "ckpt-bytes")
}

// BenchmarkOltpvet times the full static-analysis suite over the whole
// module: load and type-check every package from source, build the
// conservative call graph, and run all eight analyzers. The suite runs on
// every CI push, so a super-linear regression in the analysis substrate
// (the call-graph builder, the reachability sweeps) shows up in the bench
// guard like any simulator regression. Each iteration starts from a fresh
// loader — package and graph caches must not carry over, since cold
// analysis time is what CI pays.
func BenchmarkOltpvet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ld, err := lint.NewLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		paths, err := ld.Expand([]string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		prog, err := lint.NewProgram(ld, paths)
		if err != nil {
			b.Fatal(err)
		}
		if len(prog.Broken) > 0 {
			b.Fatalf("%s does not type-check: %v", prog.Broken[0].Path, prog.Broken[0].TypeErrors)
		}
		if diags := prog.Run(lint.All(), paths...); len(diags) != 0 {
			b.Fatalf("repo is not clean: %v", diags)
		}
	}
}
