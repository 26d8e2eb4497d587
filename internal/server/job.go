package server

import (
	"sync"

	"oltpsim/internal/core"
	"oltpsim/internal/stats"
)

// State is a job's position in the lifecycle state machine:
//
//	queued → running → checkpointed → done | failed | cancelled
//	            ↑______________|   (next configuration starts)
//
// "checkpointed" is running-with-a-restart-point: the job has persisted at
// least one checkpoint for its in-flight configuration, so killing the
// server here loses no more than one checkpoint quantum of work. A server
// restart re-queues every non-terminal job and resumes it from its latest
// checkpoint; DESIGN.md §6 argues why the resumed results are
// bit-identical.
type State string

const (
	StateQueued       State = "queued"
	StateRunning      State = "running"
	StateCheckpointed State = "checkpointed"
	StateDone         State = "done"
	StateFailed       State = "failed"
	StateCancelled    State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// valid reports whether s is one of the defined states (used when reading
// persisted state files back).
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateCheckpointed, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Event is one entry of a job's progress stream, delivered over SSE as the
// `data:` JSON of an event whose `event:` field is Type.
type Event struct {
	// Seq numbers events per job from 0; it is the SSE id field.
	Seq int `json:"seq"`
	// Type is the event kind: queued, started, config, checkpoint,
	// progress, result, done, failed, cancelled.
	Type string `json:"type"`
	// Config is the configuration index the event concerns (-1 for
	// job-level events).
	Config int `json:"config"`
	// Done and Total count completed configurations.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Measured and Target report measurement progress of the in-flight
	// configuration in committed transactions.
	Measured uint64 `json:"measured,omitempty"`
	Target   uint64 `json:"target,omitempty"`
	// Error carries the failure reason on a failed event.
	Error string `json:"error,omitempty"`
}

// maxEventHistory bounds the per-job event log kept for SSE replay. Old
// events are dropped from the front; live subscribers have already seen
// them and late subscribers still get the full current status from the
// retained tail plus GET /jobs/{id}.
const maxEventHistory = 1024

// Job is one submitted sweep and everything the server knows about it.
type Job struct {
	// ID is the server-assigned identifier ("job-000001"). Immutable.
	ID string
	// Spec is the submission as decoded. Immutable.
	Spec JobSpec

	// cfgs are the resolved machine configurations. Immutable.
	cfgs []core.Config

	mu    sync.Mutex
	state State
	err   string
	// results holds the completed configurations' results, a prefix of cfgs.
	results []stats.RunResult
	// cancel is set by DELETE; the executor honors it at the next
	// checkpoint-quantum boundary, or for a checkpoint-free job the next
	// configuration or segment boundary.
	cancel bool
	// resume carries the recovered checkpoint of the in-flight
	// configuration across a server restart; consumed by the executor.
	resume       []byte
	resumeConfig int
	// checkpoints counts checkpoint writes over the job's whole life
	// (surviving restarts — recovered from the persisted state).
	checkpoints int
	// curConfig/curMeasured/curTarget describe the in-flight configuration.
	curConfig   int
	curMeasured uint64
	curTarget   uint64

	// events is the SSE replay log; firstSeq is events[0].Seq after the
	// history cap trims the front. subs are live subscriber channels (in
	// subscription order), closed (and dropped) when a terminal event is
	// published.
	events   []Event
	firstSeq int
	subs     []subscriber
	nextSub  int
}

// subscriber is one live SSE listener.
type subscriber struct {
	id int
	ch chan Event
}

// Status is the JSON view returned by GET /jobs/{id}.
type Status struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Configs counts the sweep's configurations; Done the completed ones.
	Configs int `json:"configs"`
	Done    int `json:"configs_done"`
	// Config is the in-flight configuration index; Measured/Target its
	// measurement progress in committed transactions.
	Config   int    `json:"config"`
	Measured uint64 `json:"measured"`
	Target   uint64 `json:"target"`
	// Checkpoints counts checkpoint writes across the job's life.
	Checkpoints int `json:"checkpoints"`
	// CancelRequested reports a DELETE not yet honored.
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// Results are the completed configurations' results, in sweep order.
	// Complete exactly when State == done.
	Results []stats.RunResult `json:"results,omitempty"`
}

// status snapshots the job under its lock.
func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:              j.ID,
		Name:            j.Spec.Name,
		State:           j.state,
		Error:           j.err,
		Configs:         len(j.cfgs),
		Done:            len(j.results),
		Config:          j.curConfig,
		Measured:        j.curMeasured,
		Target:          j.curTarget,
		Checkpoints:     j.checkpoints,
		CancelRequested: j.cancel && !j.state.Terminal(),
	}
	if len(j.results) > 0 {
		st.Results = append([]stats.RunResult(nil), j.results...)
	}
	return st
}

// publish appends one event to the job's log and fans it out to live
// subscribers, closing them after a terminal event. Slow subscribers are
// skipped rather than blocked on — the replay log and GET /jobs/{id} are
// the catch-up paths. Callers must not hold j.mu.
func (j *Job) publish(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ev.Seq = j.firstSeq + len(j.events)
	if len(j.events) == maxEventHistory {
		j.events = append(j.events[:0], j.events[1:]...)
		j.events = j.events[:maxEventHistory-1]
		j.firstSeq++
	}
	j.events = append(j.events, ev)
	for _, sub := range j.subs {
		select {
		case sub.ch <- ev:
		default:
		}
	}
	if State(ev.Type).valid() && State(ev.Type).Terminal() {
		for _, sub := range j.subs {
			close(sub.ch)
		}
		j.subs = nil
	}
}

// subscribe returns the replayable event history and, unless the job is
// already terminal, a live channel registered for future events along with
// its unsubscribe function.
func (j *Job) subscribe() (replay []Event, ch chan Event, unsubscribe func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]Event(nil), j.events...)
	if j.state.Terminal() {
		return replay, nil, func() {}
	}
	id := j.nextSub
	j.nextSub++
	ch = make(chan Event, 64)
	j.subs = append(j.subs, subscriber{id: id, ch: ch})
	return replay, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		for i, sub := range j.subs {
			if sub.id == id {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				close(ch)
				return
			}
		}
	}
}

// canceled reports whether a DELETE asked this job to stop.
func (j *Job) canceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancel
}

// snapshotState captures the job's durable state for persistence.
func (j *Job) snapshotState() persistedState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return persistedStateLocked(j)
}

// startConfig marks configuration i as in flight with a fresh progress
// window.
func (j *Job) startConfig(i int, target uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.curConfig = i
	j.curMeasured = 0
	j.curTarget = target
}

// setProgress records measurement progress of the in-flight configuration.
func (j *Job) setProgress(measured, target uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.curMeasured = measured
	j.curTarget = target
}

// noteCheckpoint records one durable checkpoint for configuration i and
// moves the job into the checkpointed state.
func (j *Job) noteCheckpoint(i int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.checkpoints++
	j.curConfig = i
	if j.state == StateRunning {
		j.state = StateCheckpointed
	}
}

// event builds a job-level event of the given type from current progress.
// Callers must not hold j.mu.
func (j *Job) event(typ string, config int) Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Event{
		Type:     typ,
		Config:   config,
		Done:     len(j.results),
		Total:    len(j.cfgs),
		Measured: j.curMeasured,
		Target:   j.curTarget,
		Error:    j.err,
	}
}
