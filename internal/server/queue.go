package server

import (
	"errors"
	"io"

	"oltpsim/internal/experiments"
	"oltpsim/internal/stats"
)

// This file is the package's only concurrency seam: Start's worker
// goroutines (approved in internal/lint.ApprovedGoroutineFiles). Workers
// pull job IDs off the FIFO run queue under the server mutex and execute
// one job at a time; the simulations they drive are pure functions of
// (config, seed), so worker scheduling can never change a result — only
// which wall-clock moment it lands on.

// Start launches the worker pool. Call once after New; jobs recovered from
// disk begin resuming immediately.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closing {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// worker executes queued jobs until the server shuts down.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.nextJob()
		if j == nil {
			return
		}
		s.runJob(j)
		s.mu.Lock()
		s.busy--
		s.mu.Unlock()
	}
}

// nextJob blocks until a job is available or the server is stopping.
func (s *Server) nextJob() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closing {
			return nil
		}
		if len(s.pending) > 0 {
			id := s.pending[0]
			s.pending = s.pending[1:]
			s.busy++
			return s.jobs[id]
		}
		s.cond.Wait()
	}
}

// options builds the measurement protocol for one job.
func (j *Job) options() experiments.Options {
	o := experiments.Options{
		WarmupTxns:  j.Spec.WarmupTxns,
		MeasureTxns: j.Spec.MeasureTxns,
		Seed:        j.Spec.Seed,
		Quick:       j.Spec.Quick,
	}
	// The spec was validated at submission (and again at restore), so a
	// present scenario always compiles.
	if sp := j.Spec.Scenario; sp != nil {
		o.Scenario = sp.MustCompile()
	}
	return o
}

// quantum resolves the job's checkpoint quantum: its own checkpoint_every
// if present, the server default otherwise.
func (s *Server) quantum(j *Job) uint64 {
	if j.Spec.CheckpointEvery != nil {
		return *j.Spec.CheckpointEvery
	}
	return s.cfg.CheckpointEvery
}

// runJob executes one job to a terminal state — or to a preemption point
// when the server is stopping. All persistence happens here (and in the
// checkpoint Write hook), on the worker goroutine, so per-job disk state
// never sees concurrent writers.
func (s *Server) runJob(j *Job) {
	start := s.cfg.Now()

	j.mu.Lock()
	if j.state.Terminal() { // cancelled between dequeue and here
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	resume, resumeConfig := j.resume, j.resumeConfig
	j.resume = nil
	first := len(j.results)
	j.mu.Unlock()

	if err := s.st.writeState(j.ID, j.snapshotState()); err != nil {
		s.finishJob(j, StateFailed, "persisting state: "+err.Error())
		return
	}
	j.publish(j.event("started", -1))
	s.cfg.Logf("running %s from configuration %d/%d", j.ID, first, len(j.cfgs))

	o := j.options()
	every := s.quantum(j)
	for i := first; i < len(j.cfgs); i++ {
		j.startConfig(i, o.MeasuredTxns())
		j.publish(j.event("config", i))
		// A checkpoint-free job (quantum 0) gets no Write, which Execute
		// would still call at the end of warmup; it is polled for a stop
		// only at configuration and segment boundaries.
		cr := experiments.CheckpointRun{
			Every:      every,
			Canceled:   func() bool { return s.stopping() || j.canceled() },
			OnProgress: s.progressReporter(j, i),
		}
		if every > 0 {
			cr.Write = s.checkpointWriter(j, i)
		}
		if i == resumeConfig && resume != nil {
			cr.Resume = resume
			resume = nil
			s.mu.Lock()
			s.jobsResumed++
			s.mu.Unlock()
			s.cfg.Logf("resuming %s configuration %d from checkpoint", j.ID, i)
		}
		sr, steps, err := o.Execute(j.cfgs[i], cr)
		end := s.cfg.Now()
		wall := end.Sub(start)
		start = end
		if err != nil {
			s.stopJob(j, i, err)
			return
		}
		s.observeNsPerRef(steps, wall)
		// A kill forbids any further disk write, and Execute can return
		// cleanly after one: no run writes at the end of its measurement,
		// so none has a write left to refuse.
		if s.isKilled() {
			return
		}
		if err := s.commitResult(j, i, sr.Total); err != nil {
			s.finishJob(j, StateFailed, "persisting result: "+err.Error())
			return
		}
		j.publish(j.event("result", i))
	}
	s.finishJob(j, StateDone, "")
}

// checkpointWriter persists one checkpoint for configuration i of job j and
// records it durably in the job state, then fires the OnCheckpoint hook.
// After a kill it refuses to touch the disk — the store must stay exactly
// as the "crash" left it.
func (s *Server) checkpointWriter(j *Job, i int) func(io.WriterTo) error {
	seq := 0
	return func(ck io.WriterTo) error {
		if s.isKilled() {
			return errKilled
		}
		if err := s.st.writeCheckpoint(j.ID, ck); err != nil {
			return err
		}
		seq++
		j.noteCheckpoint(i)
		s.mu.Lock()
		s.checkpointsWritten++
		s.mu.Unlock()
		if err := s.st.writeState(j.ID, j.snapshotState()); err != nil {
			return err
		}
		j.publish(j.event("checkpoint", i))
		if s.cfg.OnCheckpoint != nil {
			s.cfg.OnCheckpoint(j.ID, i, seq)
		}
		return nil
	}
}

// progressReporter feeds measurement progress into the job and its event
// stream. Throttled to quantum boundaries by experiments.Options.Execute
// itself.
func (s *Server) progressReporter(j *Job, i int) func(measured, target uint64) {
	return func(measured, target uint64) {
		j.setProgress(measured, target)
		j.publish(j.event("progress", i))
	}
}

// errKilled aborts checkpoint writes after Kill.
var errKilled = errors.New("server: killed")

// stopJob handles an Execute error for configuration i: cancellation
// (user, close, or kill) or a persistence failure.
func (s *Server) stopJob(j *Job, i int, err error) {
	switch {
	case errors.Is(err, experiments.ErrCanceled) || errors.Is(err, errKilled):
		if s.isKilled() {
			// Simulated crash: no disk writes, no events. Recovery replays
			// from whatever the store holds.
			return
		}
		if j.canceled() {
			s.finishJob(j, StateCancelled, "")
			return
		}
		// Graceful close: leave the persisted running/checkpointed state in
		// place; New on the same DataDir re-queues and resumes this job.
		s.cfg.Logf("preempted %s at configuration %d for shutdown", j.ID, i)
	default:
		s.finishJob(j, StateFailed, err.Error())
	}
}

// commitResult makes configuration i's result durable and advances the
// job: results first, then the now-stale checkpoint's removal, then the
// state pointing past i — so a crash between any two steps recovers without
// losing a completed configuration or resuming from config i's checkpoint.
// A crash before the removal leaves state.Config == i != len(results), so
// readJob's guard discards the stale checkpoint; a crash after it leaves no
// checkpoint at all, and recovery starts config i+1 fresh (results, not
// state.Config, decide where runJob resumes).
func (s *Server) commitResult(j *Job, i int, res stats.RunResult) error {
	j.mu.Lock()
	j.results = append(j.results, res)
	results := append([]stats.RunResult(nil), j.results...)
	j.mu.Unlock()
	if err := s.st.writeResults(j.ID, results); err != nil {
		return err
	}
	if err := s.st.removeCheckpoint(j.ID); err != nil {
		return err
	}
	return s.st.writeState(j.ID, j.snapshotState())
}

// finishJob drives a job to a terminal state, persists it, updates the
// server counters, and publishes the terminal event.
func (s *Server) finishJob(j *Job, state State, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.err = errMsg
	j.mu.Unlock()
	s.mu.Lock()
	switch state {
	case StateDone:
		s.jobsCompleted++
	case StateFailed:
		s.jobsFailed++
	case StateCancelled:
		s.jobsCancelled++
	}
	s.mu.Unlock()
	if err := s.st.writeState(j.ID, j.snapshotState()); err != nil {
		s.cfg.Logf("persisting terminal state of %s: %v", j.ID, err)
	}
	if state == StateDone {
		if err := s.st.removeCheckpoint(j.ID); err != nil {
			s.cfg.Logf("removing checkpoint of %s: %v", j.ID, err)
		}
	}
	j.publish(j.event(string(state), -1))
	s.cfg.Logf("%s %s%s", j.ID, state, errSuffix(errMsg))
}

func errSuffix(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}
