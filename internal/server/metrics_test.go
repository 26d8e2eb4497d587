package server

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fabricatedServer builds a server with hand-placed state: two terminal
// jobs, one checkpointed, one queued, and three finished configurations
// with known step/wall accounting (one exactly on a bucket bound) — no
// simulations, no goroutines, so the exposition is exactly reproducible.
func fabricatedServer(t *testing.T) *Server {
	t.Helper()
	cfg := testServerConfig(t.TempDir())
	cfg.Workers = 2
	cfg.QueueDepth = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	add := func(j *Job) {
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	}
	add(&Job{ID: "job-000001", state: StateDone})
	add(&Job{ID: "job-000002", state: StateCancelled})
	add(&Job{ID: "job-000003", state: StateCheckpointed})
	add(&Job{ID: "job-000004", state: StateQueued})
	s.observeNsPerRef(4000, 10*time.Millisecond)   // 2500 ns/ref
	s.observeNsPerRef(1000, 1500*time.Microsecond) // 1500
	s.observeNsPerRef(1000, 200*time.Microsecond)  // 200: bounds are inclusive
	s.observeNsPerRef(0, time.Millisecond)         // no steps: not observed
	s.pending = []string{"job-000004"}
	s.busy = 1
	s.seq = 4
	s.jobsAccepted = 4
	s.jobsCompleted = 1
	s.jobsCancelled = 1
	s.jobsRejected = 2
	s.checkpointsWritten = 7
	return s
}

// metricsGolden is the pinned /metrics exposition of the fabricated
// server. This is a format contract: any change to series names, help
// strings, label shapes, or ordering is a breaking change for scrapers and
// must show up as a diff here.
const metricsGolden = `# HELP oltpserver_jobs_accepted_total Jobs admitted to the queue.
# TYPE oltpserver_jobs_accepted_total counter
oltpserver_jobs_accepted_total 4
# HELP oltpserver_jobs_recovered_total Jobs recovered from the data directory at startup.
# TYPE oltpserver_jobs_recovered_total counter
oltpserver_jobs_recovered_total 0
# HELP oltpserver_jobs_resumed_total Configurations resumed from a recovered checkpoint.
# TYPE oltpserver_jobs_resumed_total counter
oltpserver_jobs_resumed_total 0
# HELP oltpserver_jobs_completed_total Jobs that reached the done state.
# TYPE oltpserver_jobs_completed_total counter
oltpserver_jobs_completed_total 1
# HELP oltpserver_jobs_failed_total Jobs that reached the failed state.
# TYPE oltpserver_jobs_failed_total counter
oltpserver_jobs_failed_total 0
# HELP oltpserver_jobs_cancelled_total Jobs that reached the cancelled state.
# TYPE oltpserver_jobs_cancelled_total counter
oltpserver_jobs_cancelled_total 1
# HELP oltpserver_jobs_rejected_total Submissions rejected because the queue was full.
# TYPE oltpserver_jobs_rejected_total counter
oltpserver_jobs_rejected_total 2
# HELP oltpserver_checkpoints_written_total Checkpoints made durable across all jobs.
# TYPE oltpserver_checkpoints_written_total counter
oltpserver_checkpoints_written_total 7
# HELP oltpserver_jobs Jobs currently known, by lifecycle state.
# TYPE oltpserver_jobs gauge
oltpserver_jobs{state="queued"} 1
oltpserver_jobs{state="running"} 0
oltpserver_jobs{state="checkpointed"} 1
oltpserver_jobs{state="done"} 1
oltpserver_jobs{state="failed"} 0
oltpserver_jobs{state="cancelled"} 1
# HELP oltpserver_queue_depth Jobs admitted but not yet terminal.
# TYPE oltpserver_queue_depth gauge
oltpserver_queue_depth 2
# HELP oltpserver_queue_capacity Admission limit on concurrent jobs.
# TYPE oltpserver_queue_capacity gauge
oltpserver_queue_capacity 4
# HELP oltpserver_workers Configured worker-pool size.
# TYPE oltpserver_workers gauge
oltpserver_workers 2
# HELP oltpserver_workers_busy Workers currently executing a job.
# TYPE oltpserver_workers_busy gauge
oltpserver_workers_busy 1
# HELP oltpserver_job_ns_per_ref Wall-clock nanoseconds per simulator step of each finished job configuration.
# TYPE oltpserver_job_ns_per_ref histogram
oltpserver_job_ns_per_ref_bucket{le="100"} 0
oltpserver_job_ns_per_ref_bucket{le="150"} 0
oltpserver_job_ns_per_ref_bucket{le="200"} 1
oltpserver_job_ns_per_ref_bucket{le="300"} 1
oltpserver_job_ns_per_ref_bucket{le="500"} 1
oltpserver_job_ns_per_ref_bucket{le="1000"} 1
oltpserver_job_ns_per_ref_bucket{le="2000"} 2
oltpserver_job_ns_per_ref_bucket{le="5000"} 3
oltpserver_job_ns_per_ref_bucket{le="+Inf"} 3
oltpserver_job_ns_per_ref_sum 4200.000
oltpserver_job_ns_per_ref_count 3
`

// TestMetricsGolden pins the full exposition byte-for-byte.
func TestMetricsGolden(t *testing.T) {
	s := fabricatedServer(t)
	got := s.renderMetrics()
	if got != metricsGolden {
		t.Errorf("metrics exposition drifted from the golden format.\n--- got ---\n%s\n--- want ---\n%s", got, metricsGolden)
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(metricsGolden, "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Errorf("first divergence at line %d:\n got: %q\nwant: %q", i+1, gotLines[i], wantLines[i])
				break
			}
		}
	}
	// Two scrapes of unchanged state are byte-identical (no map-order or
	// wall-clock leakage into the exposition).
	if again := s.renderMetrics(); again != got {
		t.Error("second scrape differs from the first with unchanged state")
	}
}

// TestMetricsEndpoint checks the HTTP shape: the Prometheus text content
// type and the same body renderMetrics produces.
func TestMetricsEndpoint(t *testing.T) {
	s := fabricatedServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != metricsGolden {
		t.Error("HTTP exposition differs from renderMetrics golden")
	}
}
