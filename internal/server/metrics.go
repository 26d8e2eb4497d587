package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// handleMetrics renders the Prometheus text exposition (version 0.0.4) by
// hand — the package is stdlib-only. Series order is fixed: scalar
// families in declaration order, per-state gauges in state-machine order,
// histogram buckets in bound order. Two scrapes of the same server state
// are byte-identical, which is what the golden metrics test pins.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, s.renderMetrics())
}

// metricStates fixes the exposition order of the per-state job gauge.
var metricStates = []State{
	StateQueued, StateRunning, StateCheckpointed,
	StateDone, StateFailed, StateCancelled,
}

// renderMetrics builds the full exposition.
func (s *Server) renderMetrics() string {
	s.mu.Lock()
	// Resolve job pointers while the lock is held; indexing the jobs map
	// after unlocking would race with submit()'s inserts.
	jobList := make([]*Job, len(s.order))
	for i, id := range s.order {
		jobList[i] = s.jobs[id]
	}
	queueDepth := len(s.pending) + s.busy + s.reserved
	capacity := s.cfg.QueueDepth
	workers := s.cfg.Workers
	busy := s.busy
	nsPerRef := s.nsPerRef
	counters := []struct {
		name, help string
		value      uint64
	}{
		{"oltpserver_jobs_accepted_total", "Jobs admitted to the queue.", s.jobsAccepted},
		{"oltpserver_jobs_recovered_total", "Jobs recovered from the data directory at startup.", s.jobsRecovered},
		{"oltpserver_jobs_resumed_total", "Configurations resumed from a recovered checkpoint.", s.jobsResumed},
		{"oltpserver_jobs_completed_total", "Jobs that reached the done state.", s.jobsCompleted},
		{"oltpserver_jobs_failed_total", "Jobs that reached the failed state.", s.jobsFailed},
		{"oltpserver_jobs_cancelled_total", "Jobs that reached the cancelled state.", s.jobsCancelled},
		{"oltpserver_jobs_rejected_total", "Submissions rejected because the queue was full.", s.jobsRejected},
		{"oltpserver_checkpoints_written_total", "Checkpoints made durable across all jobs.", s.checkpointsWritten},
	}
	s.mu.Unlock()

	var b strings.Builder
	for _, c := range counters {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.value)
	}

	// Per-state gauge, computed from live job states in fixed state order.
	byState := make(map[State]int)
	for _, j := range jobList {
		st := j.status()
		byState[st.State]++
	}
	fmt.Fprint(&b, "# HELP oltpserver_jobs Jobs currently known, by lifecycle state.\n# TYPE oltpserver_jobs gauge\n")
	for _, st := range metricStates {
		fmt.Fprintf(&b, "oltpserver_jobs{state=%q} %d\n", st, byState[st])
	}

	fmt.Fprintf(&b, "# HELP oltpserver_queue_depth Jobs admitted but not yet terminal.\n# TYPE oltpserver_queue_depth gauge\noltpserver_queue_depth %d\n", queueDepth)
	fmt.Fprintf(&b, "# HELP oltpserver_queue_capacity Admission limit on concurrent jobs.\n# TYPE oltpserver_queue_capacity gauge\noltpserver_queue_capacity %d\n", capacity)
	fmt.Fprintf(&b, "# HELP oltpserver_workers Configured worker-pool size.\n# TYPE oltpserver_workers gauge\noltpserver_workers %d\n", workers)
	fmt.Fprintf(&b, "# HELP oltpserver_workers_busy Workers currently executing a job.\n# TYPE oltpserver_workers_busy gauge\noltpserver_workers_busy %d\n", busy)

	// Wall-clock cost per simulator reference (step) of every finished
	// configuration, as a fixed-bucket histogram: its series set does not
	// grow with the number of jobs.
	fmt.Fprint(&b, "# HELP oltpserver_job_ns_per_ref Wall-clock nanoseconds per simulator step of each finished job configuration.\n# TYPE oltpserver_job_ns_per_ref histogram\n")
	var cum uint64
	for i, n := range nsPerRef.counts {
		cum += n
		le := "+Inf"
		if i < len(nsPerRefBuckets) {
			le = strconv.Itoa(nsPerRefBuckets[i])
		}
		fmt.Fprintf(&b, "oltpserver_job_ns_per_ref_bucket{le=%q} %d\n", le, cum)
	}
	fmt.Fprintf(&b, "oltpserver_job_ns_per_ref_sum %.3f\noltpserver_job_ns_per_ref_count %d\n", nsPerRef.sum, cum)
	return b.String()
}

// nsPerRefBuckets are the upper bounds (inclusive, in ns per step) of the
// ns/ref histogram's buckets; a last +Inf bucket follows them. They are
// finest around the 200-500 ns a quick job's step costs on a 2-vCPU host.
var nsPerRefBuckets = [...]int{100, 150, 200, 300, 500, 1000, 2000, 5000}

// histogram counts observations into nsPerRefBuckets: counts[i] is the
// number that fell in bucket i alone (the exposition accumulates them), and
// the last slot is +Inf. The zero value is empty.
type histogram struct {
	counts [len(nsPerRefBuckets) + 1]uint64
	sum    float64
}

// observeNsPerRef records one finished configuration's wall-clock cost per
// simulator step this process executed for it.
func (s *Server) observeNsPerRef(steps uint64, wall time.Duration) {
	if steps == 0 {
		return
	}
	v := float64(wall.Nanoseconds()) / float64(steps)
	i := 0
	for i < len(nsPerRefBuckets) && v > float64(nsPerRefBuckets[i]) {
		i++
	}
	s.mu.Lock()
	s.nsPerRef.counts[i]++
	s.nsPerRef.sum += v
	s.mu.Unlock()
}
