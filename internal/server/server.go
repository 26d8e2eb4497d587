package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"oltpsim/internal/core"
)

// Config configures a Server. The zero value is not usable: Now is
// mandatory (the package never reads the wall clock itself; cmd/oltpserver
// injects time.Now, tests inject fakes).
type Config struct {
	// DataDir is the persistence root. Job specs, states, results, and
	// checkpoints live under DataDir/jobs; a server restarted on the same
	// directory recovers every job and resumes the interrupted ones.
	DataDir string
	// Workers is the job worker-pool size; 0 means 1.
	Workers int
	// QueueDepth bounds the jobs admitted but not yet terminal (queued plus
	// running). Submissions beyond it get 429 with a Retry-After header.
	// 0 means 16.
	QueueDepth int
	// CheckpointEvery is the default checkpoint quantum in committed
	// transactions for jobs that do not set checkpoint_every themselves.
	// 0 means 500.
	CheckpointEvery uint64
	// RetryAfterSeconds is the Retry-After value advertised on 429
	// responses. 0 means 1.
	RetryAfterSeconds int
	// Now supplies the wall clock (job timing metrics only — never
	// simulation inputs). Required.
	Now func() time.Time
	// Logf, when non-nil, receives one line per job lifecycle transition.
	Logf func(format string, args ...any)
	// OnCheckpoint, when non-nil, is called synchronously on the worker
	// goroutine after checkpoint seq (1-based, per configuration) of the
	// given job and configuration is durable. The lifecycle tests use it to
	// stop the server at an exact checkpoint boundary; production leaves it
	// nil.
	OnCheckpoint func(jobID string, config, seq int)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 500
	}
	if c.RetryAfterSeconds <= 0 {
		c.RetryAfterSeconds = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the oltpsim job server: a bounded queue of simulation sweeps,
// a worker pool executing them with periodic checkpoints, and an
// http.Handler exposing the REST/SSE/metrics surface. Create with New,
// start the workers with Start, stop with Close (graceful) or Kill
// (abandon, simulating a crash).
type Server struct {
	cfg Config
	st  *store
	mux *http.ServeMux

	mu   sync.Mutex
	cond *sync.Cond
	// jobs holds every known job; order is their submission order (the only
	// iteration order used anywhere — the map itself is never ranged into
	// output).
	jobs  map[string]*Job
	order []string
	// pending is the run queue (job IDs, FIFO); reserved counts submissions
	// between capacity admission and queue insertion, so a burst cannot
	// overshoot QueueDepth while specs are being persisted.
	pending  []string
	reserved int
	// busy counts workers currently executing a job.
	busy int
	// seq is the last assigned job sequence number.
	seq     uint64
	started bool
	closing bool
	killed  bool

	// Monotonic counters for /metrics.
	jobsAccepted       uint64
	jobsRecovered      uint64
	jobsResumed        uint64
	jobsCompleted      uint64
	jobsFailed         uint64
	jobsCancelled      uint64
	jobsRejected       uint64
	checkpointsWritten uint64
	// nsPerRef is the histogram of finished configurations' wall-clock
	// nanoseconds per simulator step.
	nsPerRef histogram

	wg sync.WaitGroup
}

// New builds a Server over cfg.DataDir, recovering every persisted job:
// terminal jobs become queryable history, non-terminal jobs re-enter the
// run queue (in original submission order) carrying their latest checkpoint
// so Start resumes them where the previous process stopped.
func New(cfg Config) (*Server, error) {
	if cfg.Now == nil {
		return nil, errors.New("server: Config.Now is required")
	}
	cfg = cfg.withDefaults()
	st, err := newStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:  cfg,
		st:   st,
		jobs: make(map[string]*Job),
	}
	s.cond = sync.NewCond(&s.mu)
	jobs, maxSeq, err := st.recoverJobs()
	if err != nil {
		return nil, err
	}
	s.seq = maxSeq
	for _, j := range jobs {
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		s.jobsRecovered++
		if !j.state.Terminal() {
			// Interrupted mid-run or never started: back in the queue. The
			// in-memory state returns to queued; the persisted state stays
			// whatever it was (another crash before the worker picks it up
			// recovers identically).
			j.state = StateQueued
			s.pending = append(s.pending, j.ID)
			s.cfg.Logf("recovered %s: re-queued with %d/%d configurations done (resume checkpoint: %v)",
				j.ID, len(j.results), len(j.cfgs), j.resume != nil)
			continue
		}
		// A job that ended before the restart starts its log with its
		// terminal event, so a stream of it replays that and ends.
		j.publish(j.event(string(j.state), -1))
	}
	s.mux = s.routes()
	return s, nil
}

// ServeHTTP exposes the REST API, SSE streams, health, and metrics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops the server gracefully: no new submissions are admitted,
// workers preempt their jobs at the next checkpoint boundary, or
// configuration or segment boundary for a checkpoint-free job (leaving them
// resumable on disk), and Close returns once every worker has exited. Live
// SSE streams are terminated. Safe to call more than once, and after Kill.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closing = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	for _, j := range s.jobList() {
		j.closeSubs()
	}
	return nil
}

// Kill makes the server abandon everything as fast as it can without
// touching the disk again — the deterministic stand-in for SIGKILL the
// resume tests are built on. It does not wait for workers (call Close
// afterwards to join them; Kill may be called from inside OnCheckpoint,
// where waiting would deadlock). Whatever the store holds at the moment of
// the kill is exactly what a new Server on the same DataDir recovers.
func (s *Server) Kill() {
	s.mu.Lock()
	s.killed = true
	s.closing = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// closeSubs tears down a job's live SSE subscribers without publishing an
// event (used on server close; terminal events close subscribers in
// publish).
func (j *Job) closeSubs() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, sub := range j.subs {
		close(sub.ch)
	}
	j.subs = nil
}

// stopping reports whether the server is shutting down (gracefully or
// killed).
func (s *Server) stopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

// isKilled reports whether Kill was called.
func (s *Server) isKilled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.killed
}

// jobByID looks a job up.
func (s *Server) jobByID(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// jobList snapshots every job pointer in submission order. Pointers are
// resolved while s.mu is held — indexing the jobs map after unlocking would
// race with submit()'s inserts.
func (s *Server) jobList() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	for i, id := range s.order {
		out[i] = s.jobs[id]
	}
	return out
}

// statuses snapshots every job's status in submission order.
func (s *Server) statuses() []Status {
	list := s.jobList()
	out := make([]Status, len(list))
	for i, j := range list {
		out[i] = j.status()
	}
	return out
}

// errQueueFull is returned by submit when the queue is at capacity.
var errQueueFull = errors.New("server: job queue is full")

// errClosing is returned by submit when the server is shutting down.
var errClosing = errors.New("server: shutting down")

// submit admits one decoded job: reserve a queue slot under the lock,
// persist the spec outside it, then insert and wake a worker. The
// reservation keeps concurrent submissions from overshooting QueueDepth
// during the persistence window, and the persist-before-insert order means
// a job a client ever saw accepted is durable.
func (s *Server) submit(spec JobSpec, cfgs []core.Config) (*Job, error) {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, errClosing
	}
	active := len(s.pending) + s.busy + s.reserved
	if active >= s.cfg.QueueDepth {
		s.jobsRejected++
		s.mu.Unlock()
		return nil, errQueueFull
	}
	s.reserved++
	s.seq++
	id := fmt.Sprintf("job-%06d", s.seq)
	s.mu.Unlock()

	if err := s.st.createJob(id, spec); err != nil {
		s.mu.Lock()
		s.reserved--
		s.mu.Unlock()
		return nil, fmt.Errorf("server: persisting job: %w", err)
	}

	j := &Job{ID: id, Spec: spec, cfgs: cfgs, state: StateQueued}
	s.mu.Lock()
	s.reserved--
	if s.closing {
		// Close slipped in during the persistence window: the workers are
		// gone (or going), so enqueueing would strand the job until a
		// restart. Reject it and roll the persisted spec back — the client
		// is told "shutting down", so nothing may survive to recovery.
		// After a Kill the disk must stay untouched; the spec stays, and
		// recovery runs the job exactly as it would after a real crash
		// that cut the 202 off in flight.
		killed := s.killed
		s.mu.Unlock()
		if !killed {
			if err := s.st.removeJob(id); err != nil {
				s.cfg.Logf("removing spec of rejected %s: %v", id, err)
			}
		}
		return nil, errClosing
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.pending = append(s.pending, id)
	s.jobsAccepted++
	s.cond.Signal()
	s.mu.Unlock()
	j.publish(j.event("queued", -1))
	s.cfg.Logf("accepted %s (%d configurations, name %q)", id, len(cfgs), spec.Name)
	return j, nil
}

// cancelJob requests cancellation. Queued jobs cancel immediately; running
// jobs stop at their next quantum boundary (the next configuration or
// segment boundary for a checkpoint-free job); terminal jobs return false.
func (s *Server) cancelJob(j *Job) bool {
	s.mu.Lock()
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		s.mu.Unlock()
		return false
	}
	j.cancel = true
	queued := j.state == StateQueued
	if queued {
		for i, id := range s.pending {
			if id == j.ID {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				break
			}
		}
		j.state = StateCancelled
		s.jobsCancelled++
	}
	ps := persistedStateLocked(j)
	j.mu.Unlock()
	s.mu.Unlock()
	// Persist the cancel (and, for queued jobs, the terminal state) so a
	// restart honors it.
	if err := s.st.writeState(j.ID, ps); err != nil {
		s.cfg.Logf("persisting cancel of %s: %v", j.ID, err)
	}
	if queued {
		j.publish(j.event(string(StateCancelled), -1))
		s.cfg.Logf("cancelled %s while queued", j.ID)
	}
	return true
}

// persistedStateLocked snapshots a job's durable state. Caller holds j.mu.
func persistedStateLocked(j *Job) persistedState {
	return persistedState{
		State:       j.state,
		Error:       j.err,
		Config:      len(j.results),
		Checkpoints: j.checkpoints,
		Cancel:      j.cancel && !j.state.Terminal(),
	}
}
