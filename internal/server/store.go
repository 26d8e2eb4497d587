package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"oltpsim/internal/cli"
	"oltpsim/internal/stats"
)

// On-disk layout under Config.DataDir:
//
//	jobs/job-000001/spec.json      — the submission, verbatim JobSpec
//	jobs/job-000001/state.json     — persistedState (below)
//	jobs/job-000001/results.json   — completed configurations' RunResults
//	jobs/job-000001/checkpoint.bin — latest checkpoint of the in-flight config
//
// Every write goes through an atomic tmp+rename, so any file that exists is
// complete: a server killed mid-write leaves either the old content or the
// new, never a torn file. That is what lets recovery trust whatever it
// finds.

// persistedState is the durable slice of a Job's mutable state — enough to
// re-queue and resume it after a restart.
type persistedState struct {
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Config is the in-flight configuration index (== completed results).
	Config int `json:"config"`
	// Checkpoints counts checkpoint writes over the job's whole life.
	Checkpoints int `json:"checkpoints"`
	// Cancel records a DELETE not yet honored when the state was written.
	Cancel bool `json:"cancel,omitempty"`
}

// store is the server's disk layer. All methods are safe for concurrent use
// on distinct job IDs; the server serializes per-job access itself.
type store struct {
	dir string // <DataDir>/jobs
}

func newStore(dataDir string) (*store, error) {
	dir := filepath.Join(dataDir, "jobs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &store{dir: dir}, nil
}

func (st *store) jobDir(id string) string { return filepath.Join(st.dir, id) }

// writeFile atomically replaces <jobdir>/<name> with data.
func (st *store) writeFile(id, name string, data []byte) error {
	return cli.WriteFileAtomic(filepath.Join(st.jobDir(id), name), data)
}

func (st *store) writeJSON(id, name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return st.writeFile(id, name, data)
}

// createJob makes the job directory and persists the spec and the initial
// queued state.
func (st *store) createJob(id string, spec JobSpec) error {
	if err := os.MkdirAll(st.jobDir(id), 0o755); err != nil {
		return err
	}
	if err := st.writeJSON(id, "spec.json", spec); err != nil {
		return err
	}
	return st.writeJSON(id, "state.json", persistedState{State: StateQueued})
}

func (st *store) writeState(id string, ps persistedState) error {
	return st.writeJSON(id, "state.json", ps)
}

func (st *store) writeResults(id string, results []stats.RunResult) error {
	return st.writeJSON(id, "results.json", results)
}

func (st *store) writeCheckpoint(id string, data []byte) error {
	return st.writeFile(id, "checkpoint.bin", data)
}

// removeJob deletes a job's directory entirely. Used only to roll back a
// submission the client was never told succeeded (a Close racing submit);
// accepted jobs are never removed.
func (st *store) removeJob(id string) error {
	return os.RemoveAll(st.jobDir(id))
}

// removeCheckpoint deletes the in-flight configuration's checkpoint once
// that configuration's result is durable. Absence is not an error.
func (st *store) removeCheckpoint(id string) error {
	err := os.Remove(filepath.Join(st.jobDir(id), "checkpoint.bin"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// recoverJobs scans the store and rebuilds every persisted job. Directory
// entries come back name-sorted from os.ReadDir, so recovery order — and
// therefore the re-queue order of interrupted jobs — is the original
// submission order. It returns the jobs plus the highest sequence number
// seen, so new IDs continue after the recovered ones.
func (st *store) recoverJobs() ([]*Job, uint64, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, 0, err
	}
	var jobs []*Job
	var maxSeq uint64
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "job-%06d", &seq); err != nil {
			continue
		}
		j, err := st.readJob(e.Name())
		if err != nil {
			return nil, 0, fmt.Errorf("recovering %s: %w", e.Name(), err)
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		jobs = append(jobs, j)
	}
	return jobs, maxSeq, nil
}

// readJob rebuilds one job from its directory. The spec re-resolves through
// the same validation as submission, so a recovered job's configurations
// are identical to the originals; the in-flight configuration's checkpoint
// is attached only when the persisted state says it belongs to the next
// configuration to run (a crash between "result durable" and "checkpoint
// removed" leaves a stale checkpoint, which this guard discards).
func (st *store) readJob(id string) (*Job, error) {
	specData, err := os.ReadFile(filepath.Join(st.jobDir(id), "spec.json"))
	if err != nil {
		return nil, err
	}
	spec, cfgs, err := DecodeJobSpec(bytes.NewReader(specData))
	if err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	stateData, err := os.ReadFile(filepath.Join(st.jobDir(id), "state.json"))
	if err != nil {
		return nil, err
	}
	var ps persistedState
	if err := json.Unmarshal(stateData, &ps); err != nil {
		return nil, fmt.Errorf("state.json: %w", err)
	}
	if !ps.State.valid() {
		return nil, fmt.Errorf("state.json: unknown state %q", ps.State)
	}
	j := &Job{
		ID:          id,
		Spec:        spec,
		cfgs:        cfgs,
		state:       ps.State,
		err:         ps.Error,
		cancel:      ps.Cancel,
		checkpoints: ps.Checkpoints,
		curConfig:   ps.Config,
	}
	resData, err := os.ReadFile(filepath.Join(st.jobDir(id), "results.json"))
	switch {
	case err == nil:
		if err := json.Unmarshal(resData, &j.results); err != nil {
			return nil, fmt.Errorf("results.json: %w", err)
		}
	case errors.Is(err, fs.ErrNotExist):
	default:
		return nil, err
	}
	if !ps.State.Terminal() {
		ck, err := os.ReadFile(filepath.Join(st.jobDir(id), "checkpoint.bin"))
		switch {
		case err == nil && ps.Config == len(j.results):
			j.resume = ck
			j.resumeConfig = ps.Config
		case err == nil || errors.Is(err, fs.ErrNotExist):
		default:
			return nil, err
		}
	}
	return j, nil
}
