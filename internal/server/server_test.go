package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oltpsim/internal/experiments"
)

// testClock returns a deterministic injected clock: strictly monotonic,
// one millisecond per reading, starting from a fixed epoch. The servers
// under test never touch the real wall clock.
func testClock() func() time.Time {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(time.Millisecond)
		return now
	}
}

// testServerConfig is the base configuration for an in-test server.
func testServerConfig(dir string) Config {
	return Config{
		DataDir:         dir,
		Workers:         1,
		QueueDepth:      8,
		CheckpointEvery: 50,
		Now:             testClock(),
	}
}

// newTestServer builds and starts a server, tying its shutdown to the test.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() { s.Close() })
	return s
}

// smokeSpec is the protocol the lifecycle tests run: two small machines
// under a quick workload, long enough that a 50-transaction checkpoint
// quantum fires several times per configuration.
func smokeSpec() string {
	return `{
		"name": "smoke",
		"machines": [
			{"procs": 1, "level": "base", "l2": "1M", "assoc": 1},
			{"procs": 2, "level": "full", "l2": "1M", "assoc": 2}
		],
		"warmup_txns": 60,
		"measure_txns": 120,
		"quick": true
	}`
}

// smokeOptions mirrors smokeSpec as direct experiments.Options.
func smokeOptions() experiments.Options {
	return experiments.Options{WarmupTxns: 60, MeasureTxns: 120, Quick: true}
}

// postJob submits a spec over HTTP and decodes the accepted status.
func postJob(t *testing.T, ts *httptest.Server, body string) Status {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs: status %d: %s", resp.StatusCode, msg)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/jobs/job-") {
		t.Fatalf("POST /jobs Location = %q", loc)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// getStatus fetches one job's status over HTTP.
func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: status %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal blocks until the job reaches a terminal state, using the
// same event stream SSE rides on (no polling, no timeouts of its own — the
// test binary's deadline is the backstop).
func waitTerminal(t *testing.T, s *Server, id string) State {
	t.Helper()
	j, ok := s.jobByID(id)
	if !ok {
		t.Fatalf("no such job %s", id)
	}
	replay, live, unsubscribe := j.subscribe()
	defer unsubscribe()
	for _, ev := range replay {
		if st := State(ev.Type); st.valid() && st.Terminal() {
			return st
		}
	}
	if live != nil {
		for ev := range live {
			if st := State(ev.Type); st.valid() && st.Terminal() {
				return st
			}
		}
	}
	return j.status().State
}

// readStream consumes the SSE stream of one job until its terminal event,
// returning every decoded event in order.
func readStream(t *testing.T, ts *httptest.Server, id string) []Event {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	var events []Event
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		events = append(events, ev)
		if st := State(ev.Type); st.valid() && st.Terminal() {
			return events
		}
	}
	t.Fatalf("stream ended without a terminal event (%d events)", len(events))
	return nil
}

// mustJSON marshals for byte-for-byte result comparisons: Go's encoder is
// digit-exact for uint64 and shortest-round-trip for float64, so equal
// encodings mean equal values.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServerLifecycle drives the full happy path over HTTP — submit, poll,
// stream, fetch results — and pins the headline guarantee: the results a
// checkpointed server job returns are byte-for-byte the results of calling
// experiments directly.
func TestServerLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s := newTestServer(t, testServerConfig(t.TempDir()))
	ts := httptest.NewServer(s)
	defer ts.Close()

	st := postJob(t, ts, smokeSpec())
	if st.State != StateQueued {
		t.Errorf("accepted job state = %q, want queued", st.State)
	}
	if st.Configs != 2 || st.Name != "smoke" {
		t.Errorf("accepted status = %+v", st)
	}

	events := readStream(t, ts, st.ID)
	final := getStatus(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %q (%s), want done", final.State, final.Error)
	}
	if final.Done != 2 || len(final.Results) != 2 {
		t.Fatalf("done job has %d/%d results", final.Done, len(final.Results))
	}
	if final.Checkpoints < 3 {
		t.Errorf("job wrote %d checkpoints, want >= 3 (quantum 50 over 60+120 txns x2)", final.Checkpoints)
	}

	// The event stream is complete and ordered: seq dense from 0, the
	// lifecycle markers in protocol order, a checkpoint before the first
	// result, terminal event last.
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d (stream must be dense from 0)", i, ev.Seq)
		}
	}
	var kinds []string
	for _, ev := range events {
		kinds = append(kinds, ev.Type)
	}
	joined := strings.Join(kinds, " ")
	for _, marker := range []string{"queued", "started", "config", "checkpoint", "progress", "result", "done"} {
		if !strings.Contains(joined, marker) {
			t.Errorf("stream missing %q event: %s", marker, joined)
		}
	}
	if kinds[len(kinds)-1] != "done" {
		t.Errorf("stream ended with %q, want done", kinds[len(kinds)-1])
	}

	// Byte-for-byte equality with the direct experiments call.
	_, cfgs, err := DecodeJobSpec(strings.NewReader(smokeSpec()))
	if err != nil {
		t.Fatal(err)
	}
	want := smokeOptions().RunMany(cfgs)
	if got, exp := mustJSON(t, final.Results), mustJSON(t, want); !bytes.Equal(got, exp) {
		t.Errorf("server results differ from direct RunMany:\n got %s\nwant %s", got, exp)
	}

	// The listing includes the job.
	resp, err := ts.Client().Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var all []Status
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(all) != 1 || all[0].ID != st.ID {
		t.Errorf("GET /jobs returned %+v", all)
	}
}

// TestServerRunManyPath pins the checkpoint-free job: an explicit
// checkpoint_every of 0 runs the same per-configuration executor as every
// other job without writing a checkpoint, produces results byte-identical to
// a direct RunMany, and counts its steps for /metrics.
func TestServerRunManyPath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s := newTestServer(t, testServerConfig(t.TempDir()))
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := strings.Replace(smokeSpec(), `"quick": true`, `"quick": true, "checkpoint_every": 0`, 1)
	st := postJob(t, ts, body)
	if got := waitTerminal(t, s, st.ID); got != StateDone {
		t.Fatalf("job finished %q, want done", got)
	}
	final := getStatus(t, ts, st.ID)
	if final.Checkpoints != 0 {
		t.Errorf("checkpoint-free job wrote %d checkpoints", final.Checkpoints)
	}
	_, cfgs, err := DecodeJobSpec(strings.NewReader(smokeSpec()))
	if err != nil {
		t.Fatal(err)
	}
	want := smokeOptions().RunMany(cfgs)
	if got, exp := mustJSON(t, final.Results), mustJSON(t, want); !bytes.Equal(got, exp) {
		t.Errorf("RunMany-path results differ from direct call:\n got %s\nwant %s", got, exp)
	}
	// Both finished configurations reported their steps into the ns/ref
	// histogram of this otherwise idle server.
	series := "\noltpserver_job_ns_per_ref_count " + strconv.Itoa(len(cfgs)) + "\n"
	if metrics := s.renderMetrics(); !strings.Contains(metrics, series) {
		t.Errorf("/metrics lacks the checkpoint-free job's steps (%q):\n%s", series, metrics)
	}
}

// TestServerAPIErrors covers the REST error surface that needs no
// simulation: malformed specs, unknown jobs, double cancels, and
// submissions to a draining server.
func TestServerAPIErrors(t *testing.T) {
	s := newTestServer(t, testServerConfig(t.TempDir()))
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()

	resp, err := client.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"bogus": true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec: status %d, want 400", resp.StatusCode)
	}

	for _, path := range []string{"/jobs/job-000099", "/jobs/job-000099/stream"} {
		resp, err = client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/job-000099", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown: status %d, want 404", resp.StatusCode)
	}

	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d, want 200", resp.StatusCode)
	}

	s.Close()
	resp, err = client.Post(ts.URL+"/jobs", "application/json", strings.NewReader(smokeSpec()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
}

// TestServerCancel exercises both cancellation paths: a queued job cancels
// immediately; a running job stops at the next checkpoint boundary with
// ErrCanceled mid-measurement, and a second DELETE conflicts.
func TestServerCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	gate := make(chan struct{})
	parked := make(chan struct{}, 1)
	var once sync.Once
	cfg := testServerConfig(t.TempDir())
	cfg.OnCheckpoint = func(string, int, int) {
		select {
		case parked <- struct{}{}:
		default:
		}
		<-gate
	}
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer once.Do(func() { close(gate) })

	// Job 1 occupies the single worker, parked at its first checkpoint.
	// Job 2 stays queued behind it. Waiting for the park matters: a job
	// cancelled before its first checkpoint stops at that boundary at
	// once, and could be cancelled before the status below is read.
	running := postJob(t, ts, smokeSpec())
	queued := postJob(t, ts, smokeSpec())
	<-parked

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE queued: status %d, want 202", resp.StatusCode)
	}
	if st := getStatus(t, ts, queued.ID); st.State != StateCancelled {
		t.Errorf("queued job after DELETE: %q, want cancelled immediately", st.State)
	}

	// Cancel the running job, then release the worker: it must stop at the
	// next quantum boundary without finishing the sweep.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+running.ID, nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running: status %d, want 202", resp.StatusCode)
	}
	if st := getStatus(t, ts, running.ID); !st.CancelRequested {
		t.Error("running job does not report cancel_requested")
	}
	once.Do(func() { close(gate) })
	if got := waitTerminal(t, s, running.ID); got != StateCancelled {
		t.Fatalf("running job finished %q, want cancelled", got)
	}
	if st := getStatus(t, ts, running.ID); len(st.Results) != 0 {
		t.Errorf("cancelled mid-first-config job has %d results", len(st.Results))
	}

	// Terminal jobs conflict on further DELETEs.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+running.ID, nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE terminal: status %d, want 409", resp.StatusCode)
	}

	// A stream opened after the fact replays the whole history including
	// the terminal event.
	events := readStream(t, ts, running.ID)
	if last := events[len(events)-1].Type; last != string(StateCancelled) {
		t.Errorf("replayed stream ends with %q, want cancelled", last)
	}

	// A checkpoint-free job has no quantum boundary: it stops at the next
	// configuration or segment boundary. The cancel arrives on the worker's
	// second clock reading, taken right after configuration 0's Execute
	// returns, so configuration 0 commits and configuration 1 never runs.
	t.Run("checkpoint-free", func(t *testing.T) {
		cfg := testServerConfig(t.TempDir())
		clock := cfg.Now
		var (
			readings atomic.Int32
			s        *Server
			j        *Job
		)
		cfg.Now = func() time.Time {
			if readings.Add(1) == 2 {
				s.cancelJob(j)
			}
			return clock()
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		j = submitDirect(t, s, strings.Replace(smokeSpec(), `"quick": true`, `"quick": true, "checkpoint_every": 0`, 1))
		s.Start()
		t.Cleanup(func() { s.Close() })
		if got := waitTerminal(t, s, j.ID); got != StateCancelled {
			t.Fatalf("checkpoint-free job finished %q, want cancelled", got)
		}
		if st := j.status(); len(st.Results) != 1 {
			t.Errorf("cancelled checkpoint-free job has %d results, want 1", len(st.Results))
		}
	})
}

// nextEvent reads the next event of an SSE stream, failing the test if the
// stream ends first.
func nextEvent(t *testing.T, sc *bufio.Scanner) Event {
	t.Helper()
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		return ev
	}
	t.Fatal("stream ended without a terminal event")
	return Event{}
}

// TestStreamOpenedBeforeTerminalEvent: finishJob makes a job terminal and
// persists that before it publishes the terminal event. A stream opened in
// between gets the terminal event when it is published, rather than ending
// after a replay that lacks it.
func TestStreamOpenedBeforeTerminalEvent(t *testing.T) {
	// Not started: the submitted job stays queued until the test moves it.
	s, err := New(testServerConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s)
	defer ts.Close()
	j, _ := s.jobByID(postJob(t, ts, smokeSpec()).ID)

	j.mu.Lock()
	j.state = StateDone // where finishJob's first step leaves it
	j.mu.Unlock()
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + j.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	// The handler flushes the replay after it has subscribed.
	if ev := nextEvent(t, sc); ev.Type != "queued" {
		t.Fatalf("replayed %q, want queued", ev.Type)
	}
	j.publish(j.event(string(StateDone), -1))
	if ev := nextEvent(t, sc); ev.Type != string(StateDone) || ev.Seq != 1 {
		t.Fatalf("stream went on with %q (seq %d), want done (seq 1)", ev.Type, ev.Seq)
	}
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			t.Errorf("stream continued past its terminal event: %q", sc.Text())
		}
	}
}

// TestRecoveredTerminalJobStream: a job that ended before a restart
// replays its terminal event after it, and its stream ends there.
func TestRecoveredTerminalJobStream(t *testing.T) {
	cfg := testServerConfig(t.TempDir())
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	id := postJob(t, ts, smokeSpec()).ID
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	s.Close()

	s = newTestServer(t, cfg)
	ts = httptest.NewServer(s)
	defer ts.Close()
	events := readStream(t, ts, id)
	if len(events) != 1 || events[0].Type != string(StateCancelled) {
		t.Fatalf("recovered cancelled job streams %+v, want its cancelled event alone", events)
	}
}
