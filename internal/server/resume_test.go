package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oltpsim/internal/experiments"
	"oltpsim/internal/snapshot"
)

// submitDirect hands a spec straight to the queue (the resume tests pin
// executor and persistence behavior; the HTTP surface has its own suite).
func submitDirect(t *testing.T, s *Server, body string) *Job {
	t.Helper()
	spec, cfgs, err := DecodeJobSpec(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.submit(spec, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := s.jobByID(st.ID)
	if !ok {
		t.Fatalf("submitted job %s not found", st.ID)
	}
	return j
}

// TestServerResumeEquivalence is the PR's headline acceptance test: for
// several checkpoint quanta, a server killed mid-job (no goodbyes, no
// final writes — the deterministic stand-in for SIGKILL) and restarted on
// the same data directory finishes the job with a RunResult byte-identical
// to an uninterrupted direct run. The kill lands at a different protocol
// position per quantum — mid-warmup, at the phase boundary, and
// mid-measurement — so every resume path through the executor is covered.
func TestServerResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, cfgs, err := DecodeJobSpec(strings.NewReader(smokeSpec()))
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, smokeOptions().RunMany(cfgs))

	// killAfter counts durable checkpoints before the kill. With warmup 60
	// and measure 120: quantum 25 dies in config 0's warmup; quantum 60
	// dies right at config 0's warmup/measure boundary; quantum 121 (with
	// two checkpoints: config 0's warmup-end, then config 1's warmup-end)
	// dies inside config 1.
	for _, tc := range []struct {
		quantum   uint64
		killAfter int32
	}{
		{25, 2},
		{60, 1},
		{121, 2},
	} {
		dir := t.TempDir()
		cfg := testServerConfig(dir)
		cfg.CheckpointEvery = tc.quantum

		var (
			writes int32
			victim *Server
		)
		killed := make(chan struct{})
		cfg.OnCheckpoint = func(id string, config, seq int) {
			if atomic.AddInt32(&writes, 1) == tc.killAfter {
				victim.Kill()
				close(killed)
			}
		}
		s1, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		victim = s1
		j := submitDirect(t, s1, smokeSpec())
		s1.Start()
		<-killed
		s1.Close() // joins the worker after the kill takes effect

		if got := atomic.LoadInt32(&writes); got < tc.killAfter {
			t.Fatalf("quantum %d: only %d checkpoints before the kill point %d", tc.quantum, got, tc.killAfter)
		}
		if st := j.status(); st.State.Terminal() {
			t.Fatalf("quantum %d: job reached %q before the kill", tc.quantum, st.State)
		}

		// A fresh server on the same directory recovers the job, resumes
		// the interrupted configuration from its checkpoint, and finishes.
		cfg2 := testServerConfig(dir)
		cfg2.CheckpointEvery = tc.quantum
		s2 := newTestServer(t, cfg2)
		j2, ok := s2.jobByID(j.ID)
		if !ok {
			t.Fatalf("quantum %d: restart lost job %s", tc.quantum, j.ID)
		}
		if got := waitTerminal(t, s2, j.ID); got != StateDone {
			t.Fatalf("quantum %d: resumed job finished %q (%s)", tc.quantum, got, j2.status().Error)
		}
		final := j2.status()
		if got := mustJSON(t, final.Results); !bytes.Equal(got, want) {
			t.Errorf("quantum %d: resumed results diverge from uninterrupted run:\n got %s\nwant %s", tc.quantum, got, want)
		}
		s2.mu.Lock()
		recovered, resumed := s2.jobsRecovered, s2.jobsResumed
		s2.mu.Unlock()
		if recovered != 1 {
			t.Errorf("quantum %d: recovered %d jobs, want 1", tc.quantum, recovered)
		}
		if resumed != 1 {
			t.Errorf("quantum %d: resumed %d configurations from checkpoint, want 1", tc.quantum, resumed)
		}
		if final.Checkpoints < int(tc.killAfter) {
			t.Errorf("quantum %d: final checkpoint count %d below pre-kill count %d (state.json lost history)",
				tc.quantum, final.Checkpoints, tc.killAfter)
		}
	}
}

// TestCommitBoundaryCrashRecovery pins the crash window inside
// commitResult itself. The commit order is results → checkpoint removal →
// state advance, so the only stale-checkpoint image a crash can leave is
// "results.json already holds configuration i, state.json still points at
// i, checkpoint.bin still holds config i's last checkpoint". Recovery must
// discard that checkpoint (state.Config != len(results)) and start
// configuration i+1 fresh — feeding config i's checkpoint to config i+1
// would fail its machine-fingerprint gate and dead-end the job. The test
// forges the image from a real mid-config-0 kill plus a directly computed
// config-0 result, then restarts on it.
func TestCommitBoundaryCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, cfgs, err := DecodeJobSpec(strings.NewReader(smokeSpec()))
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, smokeOptions().RunMany(cfgs))
	dir := t.TempDir()

	// Kill mid-configuration-0 so the directory holds config 0's checkpoint
	// with state.Config == 0 and no results yet.
	cfg := testServerConfig(dir)
	cfg.CheckpointEvery = 25
	var (
		writes int32
		victim *Server
	)
	killed := make(chan struct{})
	cfg.OnCheckpoint = func(string, int, int) {
		if atomic.AddInt32(&writes, 1) == 2 {
			victim.Kill()
			close(killed)
		}
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim = s1
	id := submitDirect(t, s1, smokeSpec()).ID
	s1.Start()
	<-killed
	s1.Close()

	// Forge the mid-commit crash: configuration 0's result became durable,
	// but the crash hit before the checkpoint removal (and therefore before
	// the state advance too).
	st, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.writeResults(id, smokeOptions().RunMany(cfgs[:1])); err != nil {
		t.Fatal(err)
	}

	cfg2 := testServerConfig(dir)
	cfg2.CheckpointEvery = 25
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	j2, ok := s2.jobByID(id)
	if !ok {
		t.Fatalf("restart lost job %s", id)
	}
	if j2.resume != nil {
		t.Fatal("recovery attached configuration 0's stale checkpoint to the next configuration")
	}
	s2.Start()
	t.Cleanup(func() { s2.Close() })
	if got := waitTerminal(t, s2, id); got != StateDone {
		t.Fatalf("job finished %q after commit-boundary crash (%s)", got, j2.status().Error)
	}
	if got := mustJSON(t, j2.status().Results); !bytes.Equal(got, want) {
		t.Errorf("results diverge from uninterrupted run:\n got %s\nwant %s", got, want)
	}
	s2.mu.Lock()
	resumed := s2.jobsResumed
	s2.mu.Unlock()
	if resumed != 0 {
		t.Errorf("jobsResumed = %d after discarding a stale checkpoint, want 0", resumed)
	}
}

// TestCheckpointFreeKillBarrier pins DESIGN.md §7's kill rule for a
// checkpoint-free job, which has no checkpoint write to refuse one: a Kill
// on the worker's second clock reading, taken right after configuration 0's
// Execute returns, leaves the directory as the crash found it (no
// results.json, state.json still running at configuration 0), and a restart
// runs the job to done with the uninterrupted results.
func TestCheckpointFreeKillBarrier(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	body := strings.Replace(smokeSpec(), `"quick": true`, `"quick": true, "checkpoint_every": 0`, 1)
	_, cfgs, err := DecodeJobSpec(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, smokeOptions().RunMany(cfgs))
	dir := t.TempDir()

	cfg := testServerConfig(dir)
	clock := cfg.Now
	var (
		readings atomic.Int32
		victim   *Server
	)
	killed := make(chan struct{})
	cfg.Now = func() time.Time {
		if readings.Add(1) == 2 {
			victim.Kill()
			close(killed)
		}
		return clock()
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim = s1
	id := submitDirect(t, s1, body).ID
	s1.Start()
	<-killed
	s1.Close()

	jobDir := filepath.Join(dir, "jobs", id)
	if _, err := os.Stat(filepath.Join(jobDir, "results.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("results.json after the kill: %v, want it absent", err)
	}
	data, err := os.ReadFile(filepath.Join(jobDir, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ps persistedState
	if err := json.Unmarshal(data, &ps); err != nil {
		t.Fatal(err)
	}
	if ps.State != StateRunning || ps.Config != 0 {
		t.Errorf("state.json after the kill = %s, want running at configuration 0", data)
	}

	s2 := newTestServer(t, testServerConfig(dir))
	if got := waitTerminal(t, s2, id); got != StateDone {
		t.Fatalf("restarted job finished %q, want done", got)
	}
	j2, _ := s2.jobByID(id)
	if got := mustJSON(t, j2.status().Results); !bytes.Equal(got, want) {
		t.Errorf("results after the restart diverge from RunMany:\n got %s\nwant %s", got, want)
	}
}

// TestServerDoubleKillResume chains two kills through the same job: crash,
// resume, crash again further along, resume again — the result must still
// be byte-identical. This is the "any interleaving" half of the resume
// determinism argument.
func TestServerDoubleKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, cfgs, err := DecodeJobSpec(strings.NewReader(smokeSpec()))
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, smokeOptions().RunMany(cfgs))
	dir := t.TempDir()

	var id string
	for round, killAfter := range []int32{2, 3} {
		cfg := testServerConfig(dir)
		cfg.CheckpointEvery = 25
		var (
			writes int32
			victim *Server
		)
		killed := make(chan struct{})
		cfg.OnCheckpoint = func(string, int, int) {
			if atomic.AddInt32(&writes, 1) == killAfter {
				victim.Kill()
				close(killed)
			}
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		victim = s
		if round == 0 {
			id = submitDirect(t, s, smokeSpec()).ID
		}
		s.Start()
		<-killed
		s.Close()
		j, ok := s.jobByID(id)
		if !ok {
			t.Fatalf("round %d: job %s lost", round, id)
		}
		if st := j.status(); st.State.Terminal() {
			t.Fatalf("round %d: job reached %q before the kill", round, st.State)
		}
	}

	cfg := testServerConfig(dir)
	cfg.CheckpointEvery = 25
	s := newTestServer(t, cfg)
	if got := waitTerminal(t, s, id); got != StateDone {
		t.Fatalf("job finished %q after two crash cycles", got)
	}
	j, _ := s.jobByID(id)
	if got := mustJSON(t, j.status().Results); !bytes.Equal(got, want) {
		t.Errorf("twice-crashed job diverges from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestServerGracefulCloseResume covers the third stop cause: Close (not
// Kill) preempts a running job at a checkpoint boundary, leaving it
// resumable, and a new server finishes it to the identical result. Also
// verifies a job still queued at close time is recovered and run.
func TestServerGracefulCloseResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, cfgs, err := DecodeJobSpec(strings.NewReader(smokeSpec()))
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, smokeOptions().RunMany(cfgs))
	dir := t.TempDir()

	cfg := testServerConfig(dir)
	reached := make(chan struct{})
	proceed := make(chan struct{})
	var once1, once2 bool
	cfg.OnCheckpoint = func(string, int, int) {
		if !once1 {
			once1 = true
			close(reached)
		}
		if !once2 {
			<-proceed
			once2 = true
		}
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := submitDirect(t, s1, smokeSpec())
	second := submitDirect(t, s1, smokeSpec())
	s1.Start()

	// Park the worker at the first checkpoint, begin a graceful close on
	// another goroutine, and only then let the worker continue: its next
	// quantum-boundary poll sees the shutdown and preempts.
	<-reached
	closed := make(chan struct{})
	go func() {
		s1.Close()
		close(closed)
	}()
	for !s1.stopping() {
		runtime.Gosched()
	}
	close(proceed)
	<-closed
	if st := first.status(); st.State.Terminal() {
		t.Fatalf("first job reached %q before close finished", st.State)
	}
	if st := second.status(); st.State != StateQueued {
		t.Fatalf("second job is %q at close, want queued", st.State)
	}

	s2 := newTestServer(t, testServerConfig(dir))
	for _, id := range []string{first.ID, second.ID} {
		if got := waitTerminal(t, s2, id); got != StateDone {
			t.Fatalf("job %s finished %q after graceful restart", id, got)
		}
		j, _ := s2.jobByID(id)
		if got := mustJSON(t, j.status().Results); !bytes.Equal(got, want) {
			t.Errorf("job %s diverges from uninterrupted run after graceful restart", id)
		}
	}
}

// TestServerRestartKeepsHistory: terminal jobs survive a restart as
// queryable history without re-running.
func TestServerRestartKeepsHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := t.TempDir()
	s1 := newTestServer(t, testServerConfig(dir))
	j := submitDirect(t, s1, smokeSpec())
	if got := waitTerminal(t, s1, j.ID); got != StateDone {
		t.Fatalf("job finished %q", got)
	}
	wantResults := mustJSON(t, j.status().Results)
	s1.Close()

	s2 := newTestServer(t, testServerConfig(dir))
	j2, ok := s2.jobByID(j.ID)
	if !ok {
		t.Fatal("restart lost the finished job")
	}
	st := j2.status()
	if st.State != StateDone {
		t.Errorf("recovered job state %q, want done", st.State)
	}
	if got := mustJSON(t, st.Results); !bytes.Equal(got, wantResults) {
		t.Error("recovered results differ from the originals")
	}
	s2.mu.Lock()
	pending := len(s2.pending)
	s2.mu.Unlock()
	if pending != 0 {
		t.Errorf("restart re-queued %d terminal jobs", pending)
	}
	// IDs continue after the recovered sequence instead of colliding.
	j3 := submitDirect(t, s2, smokeSpec())
	if j3.ID == j.ID {
		t.Errorf("new job reused recovered ID %s", j.ID)
	}
	s2.cancelJob(j3)
}

// TestRecoveryRefusesRetiredSpecField pins what a restart does with a job
// stored while the spec still had a field that has since been removed
// (step_workers, workers): recovery re-decodes spec.json through the strict
// submission decoder, so New fails, naming both the job and the field,
// instead of silently dropping the setting.
func TestRecoveryRefusesRetiredSpecField(t *testing.T) {
	for _, field := range []string{"step_workers", "workers"} {
		t.Run(field, func(t *testing.T) {
			dir := t.TempDir()
			st, err := newStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			spec, _, err := DecodeJobSpec(strings.NewReader(validSpecJSON))
			if err != nil {
				t.Fatal(err)
			}
			const id = "job-000001"
			if err := st.createJob(id, spec); err != nil {
				t.Fatal(err)
			}
			stored := `{"machines": [{"procs": 1, "level": "base", "l2": "1M", "assoc": 1}], "measure_txns": 10, "` + field + `": 2}`
			if err := st.writeFile(id, "spec.json", strings.NewReader(stored)); err != nil {
				t.Fatal(err)
			}

			s, err := New(testServerConfig(dir))
			if err == nil {
				s.Close()
				t.Fatalf("server recovered a job whose stored spec carries %s", field)
			}
			for _, want := range []string{id, `"` + field + `"`} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("recovery error %q does not name %s", err, want)
				}
			}
		})
	}
}

// TestRecoveryFailsOutdatedCheckpoint pins what a restart does with an
// in-flight job whose checkpoint.bin was written by an older server: in the
// layout the single driver replaced ("protocol" and "system" sections, no
// "checkpoint" section), or in the current layout under any earlier snapshot
// version. The resume is refused, and the job ends failed with the missing
// section or the outdated version named — no panic, and no silent restart
// from scratch.
func TestRecoveryFailsOutdatedCheckpoint(t *testing.T) {
	spec, cfgs, err := DecodeJobSpec(strings.NewReader(smokeSpec()))
	if err != nil {
		t.Fatal(err)
	}

	w := snapshot.NewWriter()
	e := w.Section("protocol")
	e.U8(2) // mid-measurement
	e.U64(60)
	w.Section("system").U8s([]byte("machine"))
	var format1 bytes.Buffer
	if _, err := w.WriteTo(&format1); err != nil {
		t.Fatal(err)
	}

	// The current container for configuration 0 at the end of warmup,
	// stamped as an older snapshot version with its CRC recomputed.
	var current []byte
	_, _, err = smokeOptions().Execute(cfgs[0], experiments.CheckpointRun{
		Write: func(ck io.WriterTo) error {
			var buf bytes.Buffer
			_, err := ck.WriteTo(&buf)
			current = buf.Bytes()
			return err
		},
		Canceled: func() bool { return current != nil },
	})
	if !errors.Is(err, experiments.ErrCanceled) {
		t.Fatalf("capturing the warmed checkpoint: %v", err)
	}
	stamped := func(v uint32) []byte {
		out := append([]byte(nil), current...)
		binary.LittleEndian.PutUint32(out[len(snapshot.Magic):], v)
		binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
		return out
	}

	type outdated struct {
		name, named string
		ck          []byte
	}
	cases := []outdated{{"format 1", `section "checkpoint" missing`, format1.Bytes()}}
	for v := uint32(1); v < snapshot.Version; v++ {
		cases = append(cases, outdated{fmt.Sprintf("snapshot version %d", v), fmt.Sprintf("outdated checkpoint (snapshot version %d", v), stamped(v)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := newStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			const id = "job-000001"
			if err := st.createJob(id, spec); err != nil {
				t.Fatal(err)
			}
			if err := st.writeState(id, persistedState{State: StateCheckpointed, Checkpoints: 3}); err != nil {
				t.Fatal(err)
			}
			if err := st.writeCheckpoint(id, bytes.NewReader(tc.ck)); err != nil {
				t.Fatal(err)
			}

			s := newTestServer(t, testServerConfig(dir))
			if got := waitTerminal(t, s, id); got != StateFailed {
				t.Fatalf("job ended %q, want %q", got, StateFailed)
			}
			j, _ := s.jobByID(id)
			final := j.status()
			if !strings.Contains(final.Error, tc.named) {
				t.Errorf("failure %q does not contain %q", final.Error, tc.named)
			}
			if len(final.Results) != 0 {
				t.Errorf("job produced %d results from a refused checkpoint", len(final.Results))
			}
		})
	}
}
