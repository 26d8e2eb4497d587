package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// profileHz is the CPU profile's sampling rate in the traced run.
const profileHz = 500

// traceSim runs machines under a protocol twice: untraced through the
// library's run function, then call by call with spans and a CPU profile. It fails
// every machine whose traced statistics differ from its untraced ones, and
// sets every simulator-side per-layer metric.
func traceSim(name string, e *env, p protocol, machines []machine, res *result) error {
	plain, err := newRunner(p)
	if err != nil {
		return err
	}
	want := make([]simResult, len(machines))
	start := time.Now()
	for i, m := range machines {
		if want[i], err = plain.runPlain(m); err != nil {
			return err
		}
	}
	untraced := time.Since(start)

	traced, err := newRunner(p)
	if err != nil {
		return err
	}
	tr := newTracer()
	got := make([]simResult, len(machines))
	var prof bytes.Buffer
	// Sample at profileHz rather than pprof's default 100 Hz so a
	// few-second measurement yields enough samples to split; the runtime
	// notes on standard error that StartCPUProfile's own rate is ignored.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	for i, m := range machines {
		tr.startRun(i, fmt.Sprintf("machine %dp %s %s %dw", m.procs, m.level, m.l2, m.assoc), func() {
			got[i], err = traced.runTraced(m, tr)
		})
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
	}
	pprof.StopCPUProfile()

	for i := range machines {
		res.Attempted++
		if got[i].exact != want[i].exact {
			res.fail(1, "machine %v: traced statistics differ from the untraced run\n  untraced %s\n  traced   %s", machines[i], want[i].exact, got[i].exact)
		}
	}
	path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", name, e.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans of %d traced machines written to %s\n", len(machines), path)

	n := float64(len(machines))
	perMachine := func(span string) float64 { return tr.total(span).Seconds() / n }
	refs := tr.counts["core.refs"]
	measure := tr.total("core.measure")
	nsPerRef := float64(measure.Nanoseconds()) / refs
	res.set("oltp.new_harness_s", perMachine("oltp.new_harness"), "s")
	res.set("core.new_system_s", perMachine("core.new_system"), "s")
	res.set("core.warmup_s", perMachine("core.warmup"), "s")
	res.set("core.measure_s", perMachine("core.measure"), "s")
	res.set("core.refs", refs, "count")
	res.set("core.ns_per_ref", nsPerRef, "ns/ref")
	res.set("core.ff_coverage", tr.counts["core.ff_refs"]/refs, "fraction")
	res.set("snapshot.save_ms", 1000*perMachine("snapshot.save"), "ms")
	res.set("snapshot.load_ms", 1000*perMachine("snapshot.load"), "ms")
	res.set("snapshot.bytes", tr.counts["snapshot.bytes"]/n, "B")
	// A steady measurement is one phase.
	lo, hi := nsPerRef, nsPerRef
	seen := map[string]bool{}
	for _, sp := range tr.spans {
		if !strings.HasPrefix(sp.Name, "scenario.") || seen[sp.Name] {
			continue
		}
		seen[sp.Name] = true
		v := float64(tr.total(sp.Name).Nanoseconds()) / tr.counts[sp.Name+".refs"]
		if len(seen) == 1 {
			lo, hi = v, v
		}
		lo, hi = min(lo, v), max(hi, v)
		fmt.Fprintf(os.Stderr, "perfbench: %s %.1f ns/ref\n", sp.Name, v)
	}
	res.set("scenario.phase_min_ns_per_ref", lo, "ns/ref")
	res.set("scenario.phase_max_ns_per_ref", hi, "ns/ref")

	split, err := cpuByLayer(prof.Bytes(), func(span string) bool {
		return span == "core.measure" || strings.HasPrefix(span, "scenario.")
	})
	if err != nil {
		return err
	}
	var sampled int64
	for _, ns := range split {
		sampled += ns
	}
	fmt.Fprintf(os.Stderr, "perfbench: layer split from %d CPU samples\n", sampled/(1e9/profileHz))
	for _, l := range layers {
		share := float64(split[l]) / float64(max(sampled, 1))
		res.set(l+".ns_per_ref", share*nsPerRef, "ns/ref")
	}

	var s simResult
	for _, r := range got {
		s.txns += r.txns
		s.nonIdle += r.nonIdle
		s.l1iAcc += r.l1iAcc
		s.l1iMiss += r.l1iMiss
		s.l1dAcc += r.l1dAcc
		s.l1dMiss += r.l1dMiss
		s.misses += r.misses
		s.local += r.local
		s.twoHop += r.twoHop
		s.threeHop += r.threeHop
		s.invalidations += r.invalidations
	}
	perTxn := func(v uint64) float64 { return ratio(v, s.txns) }
	res.set("cpu.cycles_per_txn", perTxn(s.nonIdle), "cycles/txn")
	res.set("cache.l1i_miss_rate", ratio(s.l1iMiss, s.l1iAcc), "fraction")
	res.set("cache.l1d_miss_rate", ratio(s.l1dMiss, s.l1dAcc), "fraction")
	res.set("cache.l2_misses_per_txn", perTxn(s.misses), "misses/txn")
	res.set("coherence.local_per_txn", perTxn(s.local), "misses/txn")
	res.set("coherence.2hop_per_txn", perTxn(s.twoHop), "misses/txn")
	res.set("coherence.3hop_per_txn", perTxn(s.threeHop), "misses/txn")
	res.set("coherence.invalidations_per_txn", perTxn(s.invalidations), "invals/txn")

	tracedWall := tr.total("oltp.new_harness") + tr.total("core.new_system") + tr.total("core.warmup") + measure
	res.set("trace_overhead_frac", tracedWall.Seconds()/untraced.Seconds()-1, "fraction")
	return nil
}

// traceServer runs jobs through a real oltpserver, timing each job's
// stages and sampling the busy-worker gauge, and sets the server metrics.
func traceServer(ctx context.Context, e *env, jobs int, res *result) error {
	sr, err := runService(ctx, e, jobs, true)
	if err != nil {
		return err
	}
	res.Attempted += sr.res.Attempted
	res.Failed += sr.res.Failed
	var submit, wait, run, ckpts []float64
	for _, j := range sr.jobs {
		if j.err != nil {
			continue
		}
		submit = append(submit, (j.accepted - j.submit).Seconds())
		wait = append(wait, (j.started - j.accepted).Seconds())
		run = append(run, (j.ended - j.started).Seconds())
		ckpts = append(ckpts, float64(j.checkpoints))
	}
	res.set("server.submit_ms", 1000*median(submit), "ms")
	res.set("server.queue_wait_ms", 1000*median(wait), "ms")
	res.set("server.run_ms", 1000*median(run), "ms")
	res.set("server.workers_busy", mean(sr.busy), "workers")
	res.set("server.checkpoints_per_job", mean(ckpts), "count")
	return nil
}

// traceWorkload is the traced run of a workload: its job loop (or, for a
// workload without one, a probe of one job per distinct spec) and its
// simulated machines.
func traceWorkload(ctx context.Context, name string, w workload, e *env) (result, error) {
	var res result
	if err := traceServer(ctx, e, w.traceJobs(e), &res); err != nil {
		return result{}, err
	}
	p := w.traceProto
	p.seed = uint64(e.seed)
	if err := traceSim(name, e, p, w.traceMachines, &res); err != nil {
		return result{}, err
	}
	res.set("host.cpu_s", cpuSeconds(), "s")
	return res, nil
}
