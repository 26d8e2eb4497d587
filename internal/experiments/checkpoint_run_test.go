package experiments

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/snapshot"
	"oltpsim/internal/stats"
)

// checkpointRunOptions is the quick protocol the checkpoint suite drives:
// long enough that every checkpoint quantum under test fires at least once
// in both warmup and measurement.
func checkpointRunOptions() Options {
	o := QuickOptions()
	o.WarmupTxns, o.MeasureTxns = 90, 180
	return o
}

// checkpointsOf runs cfg under o with quantum every and returns the result
// and every container written along the way.
func checkpointsOf(t *testing.T, o Options, cfg core.Config, every uint64) (ScenarioResult, [][]byte) {
	t.Helper()
	var cks [][]byte
	sr, steps, err := o.Execute(cfg, CheckpointRun{
		Every: every,
		Write: func(data []byte) error {
			cks = append(cks, append([]byte(nil), data...))
			return nil
		},
	})
	if err != nil {
		t.Fatalf("%s every=%d: %v", cfg.Name, every, err)
	}
	if steps == 0 {
		t.Errorf("%s every=%d: reported zero steps", cfg.Name, every)
	}
	return sr, cks
}

// resumeFromEveryCheckpoint: on every machine shape and checkpoint
// quantum, a checkpointed run under o returns exactly what the plain run
// does, and resuming from every checkpoint it wrote — mid-warmup,
// end-of-warmup, mid-phase, at a phase boundary and at the end alike —
// lands on that same result, segments included.
func resumeFromEveryCheckpoint(t *testing.T, o Options, shapes []core.Config) {
	t.Helper()
	for _, cfg := range shapes {
		want := o.RunScenario(cfg)
		if !reflect.DeepEqual(want.Total, o.Run(cfg)) {
			t.Fatalf("%s: RunScenario total differs from Run", cfg.Name)
		}
		for _, every := range []uint64{25, 60, 121} {
			t.Run(fmt.Sprintf("%s/every=%d", cfg.Name, every), func(t *testing.T) {
				t.Parallel()
				got, cks := checkpointsOf(t, o, cfg, every)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("checkpointed run differs from the plain run")
				}
				// Every quantum ending inside warmup, the end of warmup,
				// and every quantum ending inside the measurement.
				w, m := o.WarmupTxns, o.MeasuredTxns()
				if want := (w-1)/every + 1 + (m-1)/every; uint64(len(cks)) != want {
					t.Fatalf("%d checkpoints written, want %d", len(cks), want)
				}
				for i, ck := range cks {
					resumed, _, err := o.Execute(cfg, CheckpointRun{Resume: ck})
					if err != nil {
						t.Fatalf("resume %d: %v", i, err)
					}
					if !reflect.DeepEqual(resumed, want) {
						t.Errorf("resume from checkpoint %d diverges", i)
					}
				}
			})
		}
	}
}

// TestRunCheckpointedMatchesRun: a steady run on the small machine shapes
// resumes from every checkpoint to the plain run's result.
func TestRunCheckpointedMatchesRun(t *testing.T) {
	resumeFromEveryCheckpoint(t, checkpointRunOptions(), []core.Config{
		core.BaseConfig(1, 1*core.MB, 1),
		core.FullConfig(2, 1*core.MB, 2),
	})
}

// TestSnapshotCheckpointResume: a steady run on the 8-CPU Full 2M8w machine
// resumes from every checkpoint to the plain run's result.
func TestSnapshotCheckpointResume(t *testing.T) {
	resumeFromEveryCheckpoint(t, checkpointRunOptions(), []core.Config{
		core.FullConfig(8, 2*core.MB, 8),
	})
}

// TestScenarioCheckpointResumeEquivalence: a burst-profile run on every
// machine shape resumes from every checkpoint to the plain run's
// ScenarioResult, including the segments completed before the checkpoint,
// which ride in the container.
func TestScenarioCheckpointResumeEquivalence(t *testing.T) {
	o := checkpointRunOptions()
	o.Scenario = compileProfile(t, burstProfile())
	resumeFromEveryCheckpoint(t, o, []core.Config{
		core.BaseConfig(1, 1*core.MB, 1),
		core.FullConfig(2, 1*core.MB, 2),
		core.FullConfig(8, 2*core.MB, 8),
	})
}

// TestCheckpointWritePositions pins where checkpoints land: after every
// quantum of warmup counted from the start, at the end of warmup, and after
// every quantum counted from the statistics reset that ends inside the
// measurement. A phased run writes at exactly the commit counts of a
// steady run of the same length — its phase boundaries (40 and 90 into
// the measurement here) stop the run but write nothing.
func TestCheckpointWritePositions(t *testing.T) {
	cfg := core.BaseConfig(1, 1*core.MB, 1)
	steady := checkpointRunOptions()
	phased := steady
	phased.Scenario = compileProfile(t, burstProfile())
	steady.MeasureTxns = phased.Scenario.TotalTxns()

	sys := steady.build(cfg)
	committedAt := func(o Options) []uint64 {
		_, cks := checkpointsOf(t, o, cfg, 25)
		var at []uint64
		for i, data := range cks {
			ck, err := decodeCheckpoint(data)
			if err != nil {
				t.Fatalf("checkpoint %d: %v", i, err)
			}
			if err := sys.Load(bytes.NewReader(ck.system)); err != nil {
				t.Fatalf("checkpoint %d: %v", i, err)
			}
			at = append(at, sys.Committed())
		}
		return at
	}
	want := []uint64{25, 50, 75, 90, 115, 140, 165, 190}
	if got := committedAt(steady); !reflect.DeepEqual(got, want) {
		t.Errorf("steady run wrote checkpoints at %v, want %v", got, want)
	}
	if got := committedAt(phased); !reflect.DeepEqual(got, want) {
		t.Errorf("phased run wrote checkpoints at %v, want the steady run's %v", got, want)
	}
}

// TestRunCheckpointedNoQuantum: Every == 0 writes exactly one checkpoint
// (end of warmup) and still matches Options.Run.
func TestRunCheckpointedNoQuantum(t *testing.T) {
	cfg := core.BaseConfig(1, 1*core.MB, 1)
	o := checkpointRunOptions()
	want := o.Run(cfg)
	var n int
	sr, _, err := o.Execute(cfg, CheckpointRun{
		Write: func(data []byte) error { n++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("wrote %d checkpoints, want 1 (end of warmup only)", n)
	}
	if !reflect.DeepEqual(sr.Total, want) {
		t.Error("result diverges from Options.Run")
	}
}

// TestRunCheckpointedCancel: cancellation is honored at quantum boundaries
// in both phases, returns ErrCanceled, and a run resumed from the last
// checkpoint before the cancel still converges to the uninterrupted result.
func TestRunCheckpointedCancel(t *testing.T) {
	cfg := core.BaseConfig(1, 1*core.MB, 1)
	o := checkpointRunOptions()
	want := o.Run(cfg)

	// Cancel after the k-th checkpoint write, for several k: early warmup,
	// around the warmup/measure boundary, and mid-measurement.
	for _, after := range []int{1, 3, 6} {
		var last []byte
		writes := 0
		_, _, err := o.Execute(cfg, CheckpointRun{
			Every: 30,
			Write: func(data []byte) error {
				writes++
				last = append(last[:0], data...)
				return nil
			},
			Canceled: func() bool { return writes >= after },
		})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("after=%d: err = %v, want ErrCanceled", after, err)
		}
		if writes < after {
			t.Fatalf("after=%d: only %d writes before cancel", after, writes)
		}
		resumed, _, err := o.Execute(cfg, CheckpointRun{Resume: last})
		if err != nil {
			t.Fatalf("after=%d: resume: %v", after, err)
		}
		if !reflect.DeepEqual(resumed.Total, want) {
			t.Errorf("after=%d: resumed result diverges from uninterrupted run", after)
		}
	}

	// Canceled before any work: no checkpoint, ErrCanceled immediately.
	_, steps, err := o.Execute(cfg, CheckpointRun{
		Canceled: func() bool { return true },
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled run: err = %v, want ErrCanceled", err)
	}
	if steps != 0 {
		t.Errorf("pre-canceled run executed %d steps, want 0", steps)
	}
}

// TestRunCheckpointedProgress: OnProgress reports (0, target) at the
// statistics reset, is non-decreasing, and ends exactly at the target.
func TestRunCheckpointedProgress(t *testing.T) {
	cfg := core.BaseConfig(1, 1*core.MB, 1)
	o := checkpointRunOptions()
	var measured []uint64
	_, _, err := o.Execute(cfg, CheckpointRun{
		Every: 40,
		OnProgress: func(m, target uint64) {
			if target != o.MeasureTxns {
				t.Errorf("OnProgress target = %d, want %d", target, o.MeasureTxns)
			}
			measured = append(measured, m)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(measured) < 3 {
		t.Fatalf("only %d progress calls", len(measured))
	}
	if measured[0] != 0 {
		t.Errorf("first progress call reported %d, want 0 (statistics reset)", measured[0])
	}
	for i := 1; i < len(measured); i++ {
		if measured[i] < measured[i-1] {
			t.Errorf("progress regressed: %v", measured)
		}
	}
	if last := measured[len(measured)-1]; last < o.MeasureTxns {
		t.Errorf("final progress %d below target %d", last, o.MeasureTxns)
	}
}

// parentContainer builds a checkpoint in the layout the single driver
// replaced, stamped with the current snapshot version: a "protocol"
// section (position, measure base), for a phased run a "scenario" section
// (schedule fingerprint, completed segments, previous cumulative
// collection), then the machine. It has no "checkpoint" section.
func parentContainer(phased bool, system []byte) []byte {
	w := snapshot.NewWriter()
	e := w.Section("protocol")
	e.U8(2) // mid-measurement
	e.U64(90)
	if phased {
		e = w.Section("scenario")
		e.String("scenario1|burst")
		e.Int(1)
		e.U64(0)
		seg := stats.RunResult{Name: "calm", Txns: 40}
		seg.SaveState(e)
		seg.SaveState(e)
	}
	w.Section("system").U8s(system)
	var buf bytes.Buffer
	if err := w.Emit(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// withVersion returns data, a snapshot stream, stamped as written in
// snapshot version v, with its CRC recomputed so only the version differs.
func withVersion(data []byte, v uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[len(snapshot.Magic):], v)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// TestOutdatedCheckpointRefused: a container in the layout the single
// driver replaced, steady or phased, is refused on resume with an error
// naming the missing "checkpoint" section, and a current container written
// in any earlier snapshot version with an error naming that version, before
// any machine state is touched.
func TestOutdatedCheckpointRefused(t *testing.T) {
	cfg := core.BaseConfig(1, 1*core.MB, 1)
	o := checkpointRunOptions()
	var machine bytes.Buffer
	if err := o.build(cfg).Save(&machine); err != nil {
		t.Fatal(err)
	}
	for _, phased := range []bool{false, true} {
		ro := o
		if phased {
			ro.Scenario = compileProfile(t, burstProfile())
		}
		_, _, err := ro.Execute(cfg, CheckpointRun{Resume: parentContainer(phased, machine.Bytes())})
		if err == nil || !strings.Contains(err.Error(), `section "checkpoint" missing`) {
			t.Errorf("phased=%t: resume error %v, want the missing section named", phased, err)
		}
	}

	_, cks := checkpointsOf(t, o, cfg, 0)
	for v := uint32(1); v < snapshot.Version; v++ {
		_, _, err := o.Execute(cfg, CheckpointRun{Resume: withVersion(cks[0], v)})
		if want := fmt.Sprintf("outdated checkpoint (snapshot version %d", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("snapshot version %d: resume error %v, want the outdated version named", v, err)
		}
	}
}

// TestResumeRefusesDuplicateLine: a checkpoint whose L1I set holds one
// line in two ways is refused on resume, naming the cache, rather than
// restored into a machine where the line would survive its invalidation.
func TestResumeRefusesDuplicateLine(t *testing.T) {
	ck := encodedCheckpoint(t, checkpoint{
		pos:    posWarmed,
		proto:  protocol{warmup: 90, measure: 180, quick: true},
		system: duplicateLineMachine(),
	})
	_, _, err := checkpointRunOptions().Execute(core.BaseConfig(1, 1*core.MB, 1), CheckpointRun{Resume: ck})
	if err == nil || !strings.Contains(err.Error(), "cache L1I: way 1 holds line 0x0 twice in its set") {
		t.Fatalf("resume error %v, want the duplicate line named", err)
	}
}

// withSwitchRef returns machine, a saved 1-CPU machine stream, with the
// first reference in CPU 0's context-switch buffer rewritten by patch and
// the stream's CRC recomputed. The scheduler closes the workload section,
// the stream's last, so the buffer sits at a fixed distance from the end:
//
//	... | count n | n refs of 15 bytes | switch position | crc
//
// and n is the first count at or above the switch position that, read from
// where it would sit, equals itself.
func withSwitchRef(t *testing.T, machine []byte, patch func(ref []byte)) []byte {
	t.Helper()
	const refBytes, tail = 8 + 1 + 1 + 1 + 4, 8 + 4
	out := append([]byte(nil), machine...)
	end := len(out) - tail
	swPos := int(binary.LittleEndian.Uint64(out[end:]))
	for n := max(swPos, 1); end-refBytes*n-8 >= 0; n++ {
		at := end - refBytes*n
		if int(binary.LittleEndian.Uint64(out[at-8:])) != n {
			continue
		}
		if kind := out[at+8]; kind > 2 {
			t.Fatalf("reference at offset %d has kind %d: switch buffer mislocated", at, kind)
		}
		patch(out[at : at+refBytes])
		binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
		return out
	}
	t.Fatal("no context-switch references in the saved machine")
	return nil
}

// TestResumeRefusesImpossibleRef: a checkpoint whose scheduler holds a
// reference no generator can produce (an unknown kind, an address beyond 48
// bits, an instruction count a reference cannot hold) is refused on resume
// with an error naming the reference, rather than run as a load no counter
// sees or with a truncated instruction count.
func TestResumeRefusesImpossibleRef(t *testing.T) {
	cfg := core.BaseConfig(1, 1*core.MB, 1)
	o := checkpointRunOptions()
	_, cks := checkpointsOf(t, o, cfg, 0)
	warmed, err := decodeCheckpoint(cks[0])
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		patch func(ref []byte)
		want  string
	}{
		{"unknown kind", func(ref []byte) { ref[8] = 3 }, "kernel: reference 0 has unknown kind 3"},
		{"address beyond 48 bits", func(ref []byte) { binary.LittleEndian.PutUint64(ref, 1<<48) },
			"kernel: reference 0 address 0x1000000000000 exceeds"},
		{"instruction count beyond 16 bits", func(ref []byte) { binary.LittleEndian.PutUint32(ref[11:], 1<<16+5) },
			"kernel: reference 0 instruction count 65541 exceeds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ck := warmed
			ck.system = withSwitchRef(t, warmed.system, c.patch)
			_, _, err := o.Execute(cfg, CheckpointRun{Resume: encodedCheckpoint(t, ck)})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("resume error %v, want %q", err, c.want)
			}
		})
	}
	// The untouched checkpoint resumes.
	if _, _, err := o.Execute(cfg, CheckpointRun{Resume: encodedCheckpoint(t, warmed)}); err != nil {
		t.Fatalf("unpatched checkpoint: %v", err)
	}
}
