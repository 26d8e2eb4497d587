package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The service workload drives a real oltpserver closed-loop: one client per
// CPU, each submitting its next job only after the previous one is done.
const (
	serviceSetupReps = 11
	// serviceMinJobs keeps at least ten turnaround samples beyond p90.
	serviceMinJobs = 100
	// serviceJobsPerSecond sizes the run from -seconds at about the rate a
	// 2-CPU host completes these jobs.
	serviceJobsPerSecond = 5
)

// serverProbe is the job count of the server probe in the traced run of a
// workload without a job loop: one job per distinct spec.
func serverProbe(*env) int { return 6 }

// serviceScenario is the short phased profile of the phased job spec.
const serviceScenario = "perfbench/scenarios/shift.json"

// serviceMachines are the traced stand-in for the job mix: its phased 8-CPU
// Full job, ten times over, so the layer split rests on enough CPU samples.
var serviceMachines = []machine{
	{8, "full", "2M", 8}, {8, "full", "2M", 8}, {8, "full", "2M", 8}, {8, "full", "2M", 8}, {8, "full", "2M", 8},
	{8, "full", "2M", 8}, {8, "full", "2M", 8}, {8, "full", "2M", 8}, {8, "full", "2M", 8}, {8, "full", "2M", 8},
}

// serviceJobs is the job count of one run.
func serviceJobs(e *env) int {
	return max(serviceMinJobs, serviceJobsPerSecond*int(e.seconds/time.Second))
}

// jobSpecs builds the distinct job specs of a run from its seed: a quick
// 1-CPU Base, an 8-CPU Full, and an 8-CPU Full under a short phased
// profile, each at two workload seeds. Specs leave checkpoint_every unset,
// so jobs take the server's default checkpoint quantum.
func jobSpecs(seed int64, warmup, measure uint64) ([][]byte, error) {
	profile, err := os.ReadFile(serviceScenario)
	if err != nil {
		return nil, err
	}
	type m map[string]any
	shapes := []m{
		{"machines": []m{{"procs": 1, "level": "base", "l2": "8M", "assoc": 1}}},
		{"machines": []m{{"procs": 8, "level": "full", "l2": "2M", "assoc": 8}}},
		{"machines": []m{{"procs": 8, "level": "full", "l2": "2M", "assoc": 8}}, "scenario": json.RawMessage(profile)},
	}
	var specs [][]byte
	for v := uint64(1); v <= 2; v++ {
		for i, s := range shapes {
			s["name"] = fmt.Sprintf("shape%d-v%d", i, v)
			s["warmup_txns"], s["measure_txns"] = warmup, measure
			s["quick"] = true
			s["seed"] = 2*uint64(seed) + v
			data, err := json.Marshal(s)
			if err != nil {
				return nil, err
			}
			specs = append(specs, data)
		}
	}
	return specs, nil
}

// jobRecord is one job as the client saw it. Times are offsets from the
// start of the job loop.
type jobRecord struct {
	spec                             int
	submit, accepted, started, ended time.Duration
	state                            string
	checkpoints                      int
	simTxns                          uint64
	results                          json.RawMessage
	err                              error
}

// server is a running oltpserver child.
type server struct {
	cmd   *exec.Cmd
	base  string
	setup time.Duration // launch until /healthz answers
}

// startServer launches oltpserver on a fresh data directory and waits until
// /healthz answers.
func startServer(ctx context.Context, e *env, client *http.Client, name string) (*server, error) {
	dir := filepath.Join(e.work, name)
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.CommandContext(ctx, e.binary("oltpserver"), "-addr", "127.0.0.1:0", "-data-dir", dir,
		"-workers", strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd}
	line, err := bufio.NewReader(out).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "oltpserver listening on ")
	if err != nil || !ok {
		s.stop()
		return nil, fmt.Errorf("oltpserver did not report its address (%q, %v); log in %s.log", line, err, dir)
	}
	s.base = "http://" + addr
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if ctx.Err() != nil {
			s.stop()
			return nil, ctx.Err()
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.setup = time.Since(start)
	return s, nil
}

// stop drains the server with SIGTERM, waits for it to exit and returns its
// peak resident memory. A server stopped right after /healthz first answers
// may not have installed its signal handler yet; dying of the SIGTERM then
// is a normal stop too.
func (s *server) stop() (float64, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.cmd.Process.Kill()
	}
	err := s.cmd.Wait()
	if ws, ok := s.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		err = nil
	}
	return peakRSS(s.cmd.ProcessState), err
}

// serviceRun is the outcome of one closed-loop job run.
type serviceRun struct {
	res    result
	setups []float64
	jobs   []jobRecord
	wall   time.Duration // server launch until it has exited
	loop   time.Duration // first submit until the last job ended
	rssMB  float64
	busy   []float64 // oltpserver_workers_busy samples, traced runs only
}

// runService times the server's set-up, then runs the job loop against a
// fresh server. With scrape set, it also samples the busy-worker gauge.
func runService(ctx context.Context, e *env, n int, scrape bool) (*serviceRun, error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * runtime.NumCPU()}}
	defer client.CloseIdleConnections()
	sr := &serviceRun{}
	for i := 0; i < serviceSetupReps; i++ {
		s, err := startServer(ctx, e, client, fmt.Sprintf("setup-%d", i))
		if err != nil {
			return nil, err
		}
		sr.setups = append(sr.setups, s.setup.Seconds())
		if _, err := s.stop(); err != nil {
			return nil, fmt.Errorf("oltpserver set-up run: %w", err)
		}
	}

	s0, err := newRunner(protocol{quick: true})
	if err != nil {
		return nil, err
	}
	warmup, measure := s0.lengths()
	specs, err := jobSpecs(e.seed, warmup, measure)
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(e.seed)).Perm(n)
	for i := range order {
		order[i] %= len(specs)
	}

	start := time.Now()
	srv, err := startServer(ctx, e, client, "service")
	if err != nil {
		return nil, err
	}
	stopScrape := func() {}
	if scrape {
		stopScrape = sr.scrapeBusy(ctx, client, srv.base)
	}
	sr.jobs = make([]jobRecord, n)
	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				sr.jobs[i] = runJob(ctx, client, srv.base, order[i], specs[order[i]], t0)
			}
		}()
	}
	wg.Wait()
	sr.loop = time.Since(t0)
	stopScrape()
	sr.rssMB, err = srv.stop()
	sr.wall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("oltpserver: %w", err)
	}
	sr.check()
	return sr, nil
}

// scrapeBusy samples oltpserver_workers_busy from /metrics every 50 ms
// until the returned stop function is called; stop waits for the sampler.
func (sr *serviceRun) scrapeBusy(ctx context.Context, client *http.Client, base string) func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			resp, err := client.Get(base + "/metrics")
			if err != nil {
				continue
			}
			body, _ := io.ReadAll(resp.Body) // a short read only loses one sample
			resp.Body.Close()
			for _, line := range strings.Split(string(body), "\n") {
				if v, ok := strings.CutPrefix(line, "oltpserver_workers_busy "); ok {
					if f, err := strconv.ParseFloat(v, 64); err == nil {
						sr.busy = append(sr.busy, f)
					}
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// runJob submits one job, follows its event stream to the terminal event,
// and reads its final status.
func runJob(ctx context.Context, client *http.Client, base string, specIdx int, spec []byte, t0 time.Time) jobRecord {
	rec := jobRecord{spec: specIdx, submit: time.Since(t0)}
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		rec.err = err
		return rec
	}
	var accepted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	rec.accepted = time.Since(t0)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		rec.err = fmt.Errorf("submit answered %s (%v)", resp.Status, err)
		return rec
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+accepted.ID+"/stream", nil)
	if err != nil {
		rec.err = err
		return rec
	}
	resp, err = client.Do(req)
	if err != nil {
		rec.err = err
		return rec
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		ev, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		if ev == "started" && rec.started == 0 {
			rec.started = time.Since(t0)
		}
		if ev == "done" || ev == "failed" || ev == "cancelled" {
			rec.ended = time.Since(t0)
			rec.state = ev
			break
		}
	}
	resp.Body.Close()
	if rec.state == "" {
		rec.err = fmt.Errorf("%s: event stream ended without a terminal event (%v)", accepted.ID, sc.Err())
		return rec
	}

	resp, err = client.Get(base + "/jobs/" + accepted.ID)
	if err != nil {
		rec.err = err
		return rec
	}
	var st struct {
		State       string          `json:"state"`
		Checkpoints int             `json:"checkpoints"`
		Results     json.RawMessage `json:"results"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		rec.err = fmt.Errorf("%s status: %w", accepted.ID, err)
		return rec
	}
	var results []struct{ Txns uint64 }
	if err := json.Unmarshal(st.Results, &results); err != nil || len(results) != 1 {
		rec.err = fmt.Errorf("%s: %d results (%v)", accepted.ID, len(results), err)
		return rec
	}
	rec.state, rec.checkpoints, rec.results = st.State, st.Checkpoints, st.Results
	rec.simTxns = results[0].Txns
	if st.State != "done" {
		rec.err = fmt.Errorf("%s ended %s", accepted.ID, st.State)
	}
	return rec
}

// check counts the jobs and fails those that did not finish, and those whose
// results differ from an earlier job with the same spec.
func (sr *serviceRun) check() {
	first := make(map[int]json.RawMessage)
	for i := range sr.jobs {
		j := &sr.jobs[i]
		sr.res.Attempted++
		if j.err == nil && j.results == nil {
			j.err = errors.New("not run before the deadline")
		}
		if j.err == nil {
			if prev, ok := first[j.spec]; !ok {
				first[j.spec] = j.results
			} else if !bytes.Equal(prev, j.results) {
				j.err = errors.New("results differ from an earlier job with the same spec")
			}
		}
		if j.err != nil {
			sr.res.fail(1, "job %d: %v", i, j.err)
		}
	}
}

// turnarounds returns the finished jobs' submit-to-done times in seconds.
func (sr *serviceRun) turnarounds() []float64 {
	var out []float64
	for _, j := range sr.jobs {
		if j.err == nil {
			out = append(out, (j.ended - j.submit).Seconds())
		}
	}
	return out
}

func measureService(ctx context.Context, e *env) (result, error) {
	sr, err := runService(ctx, e, serviceJobs(e), false)
	if err != nil {
		return result{}, err
	}
	s0, err := newRunner(protocol{quick: true})
	if err != nil {
		return result{}, err
	}
	warmup, _ := s0.lengths()
	var simTxns float64
	for _, j := range sr.jobs {
		if j.err == nil {
			simTxns += float64(warmup + j.simTxns)
		}
	}
	lat := sr.turnarounds()
	setup := median(sr.setups)
	fmt.Fprintf(os.Stderr, "perfbench: %d jobs, %d turnaround samples, %d server set-ups\n", len(sr.jobs), len(lat), len(sr.setups))
	res := sr.res
	res.set("setup_s", setup, "s")
	res.set("wall_s", sr.wall.Seconds(), "s")
	res.set("sim_txns_per_s", simTxns/(sr.wall.Seconds()-setup), "txn/s")
	res.set("peak_rss_mb", sr.rssMB, "MB")
	res.set("fidelity_pass", 1, "count")
	res.set("success_rate", 1-float64(res.Failed)/float64(max(res.Attempted, 1)), "fraction")
	res.set("jobs_per_s", float64(len(lat))/sr.loop.Seconds(), "1/s")
	res.set("job_p50_ms", 1000*median(lat), "ms")
	res.set("job_p90_ms", 1000*quantile(lat, 0.9), "ms")
	return res, nil
}
