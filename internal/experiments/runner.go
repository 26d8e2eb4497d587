package experiments

import (
	"runtime"
	"sync"

	"oltpsim/internal/core"
	"oltpsim/internal/stats"
)

// pool calls run(i) for every i in [0, n) on a bounded worker pool
// (Options.Workers goroutines, default GOMAXPROCS, never more than n) and
// returns once all calls have. run must write only its own slot i of its
// caller's output, so the output is the same whichever worker takes which
// index.
func (o Options) pool(n int, run func(i int)) {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	w = min(w, n)
	if w <= 1 {
		for i := range n {
			run(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				run(i)
			}
		}()
	}
	for i := range n {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// RunMany executes every configuration under the protocol and returns the
// results in input order. Configurations with equal Fingerprints build the
// same machine, so the worker pool runs each distinct machine once, in
// first-appearance order, and every configuration sharing it gets a copy
// of its result under its own Name (RunResult holds no slices or maps).
// Because each simulation is a pure function of (config, seed) — no
// package shares mutable state between System instances — the result slice
// is bit-identical to running every configuration serially; only
// wall-clock time changes.
func (o Options) RunMany(cfgs []core.Config) []stats.RunResult {
	first := make(map[string]int, len(cfgs)) // fingerprint -> first index
	var runs []int
	for i, cfg := range cfgs {
		fp := cfg.Fingerprint()
		if _, seen := first[fp]; !seen {
			first[fp] = i
			runs = append(runs, i)
		}
	}
	results := make([]stats.RunResult, len(cfgs))
	o.pool(len(runs), func(k int) { results[runs[k]] = o.Run(cfgs[runs[k]]) })
	for i, cfg := range cfgs {
		results[i] = results[first[cfg.Fingerprint()]]
		results[i].Name = cfg.Name
	}
	return results
}
