package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/oltp"
)

// TestScenarioSinglePhaseIsSteadyState pins the opt-in contract at its
// sharpest point: a single-phase pure-update profile must reproduce the
// steady-state run byte for byte — the identical RunResult and the
// identical final machine state — because the degenerate schedule draws
// from exactly the same RNG stream as the steady generator.
func TestScenarioSinglePhaseIsSteadyState(t *testing.T) {
	cfg := core.FullConfig(8, 2*core.MB, 8)
	o := invariantOptions()

	steady := o
	sysSteady := core.MustNewSystem(cfg, oltp.MustNewHarness(steady.Params(cfg)))
	refRes := sysSteady.Run(steady.WarmupTxns, steady.MeasureTxns)
	refRes.Name = cfg.Name

	phased := o
	phased.Scenario = compileProfile(t, steadyProfile(o.MeasureTxns))
	sysPhased := core.MustNewSystem(cfg, oltp.MustNewHarness(phased.Params(cfg)))
	sysPhased.RunUntil(phased.WarmupTxns)
	sysPhased.ResetStats()
	base := sysPhased.Committed()
	sysPhased.RunUntil(base + phased.Scenario.TotalTxns())
	gotRes := sysPhased.Collect(cfg.Name, sysPhased.Committed()-base)

	if !reflect.DeepEqual(gotRes, refRes) {
		t.Errorf("single-phase scenario result differs from steady state:\n got %+v\nwant %+v", gotRes, refRes)
	}

	var refState, gotState bytes.Buffer
	if err := sysSteady.Save(&refState); err != nil {
		t.Fatal(err)
	}
	if err := sysPhased.Save(&gotState); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refState.Bytes(), gotState.Bytes()) {
		t.Errorf("final machine state differs: steady %d bytes, phased %d bytes",
			refState.Len(), gotState.Len())
	}

	// The segmented runner reports the same total.
	sr := phased.RunScenario(cfg)
	if !reflect.DeepEqual(sr.Total, refRes) {
		t.Errorf("RunScenario total differs from steady-state result")
	}
	if len(sr.Phases) != 1 || !reflect.DeepEqual(sr.Phases[0].Result.Txns, refRes.Txns) {
		t.Errorf("degenerate schedule did not produce one full-length segment")
	}
}

// TestScenarioCheckpointResumeEquivalence kills a phased run mid-phase and
// resumes it from a checkpoint written inside phase two: the resumed run's
// ScenarioResult — including the segments completed before the kill, which
// ride in the checkpoint container — must equal the uninterrupted run's
// exactly.
func TestScenarioCheckpointResumeEquivalence(t *testing.T) {
	cfg := core.FullConfig(8, 2*core.MB, 8)
	o := invariantOptions()
	o.Scenario = compileProfile(t, burstProfile())

	ref := o.RunScenario(cfg)

	var checkpoints [][]byte
	full, _, err := o.RunScenarioCheckpointed(cfg, CheckpointRun{
		Every: 17,
		Write: func(data []byte) error {
			checkpoints = append(checkpoints, append([]byte(nil), data...))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, ref) {
		t.Fatalf("checkpointed run differs from plain run")
	}
	if len(checkpoints) < 4 {
		t.Fatalf("expected several checkpoints, got %d", len(checkpoints))
	}

	// Resume from every checkpoint — end-of-warmup, mid-phase, and
	// end-of-phase snapshots alike must all converge on the same result.
	for i, ck := range checkpoints {
		resumed, _, err := o.RunScenarioCheckpointed(cfg, CheckpointRun{Resume: ck})
		if err != nil {
			t.Fatalf("resuming checkpoint %d: %v", i, err)
		}
		if !reflect.DeepEqual(resumed, ref) {
			t.Errorf("resume from checkpoint %d diverged from uninterrupted run", i)
		}
	}
}

// TestScenarioCheckpointFingerprintGuard rejects resuming one scenario's
// checkpoint under a different schedule: splicing two parameter streams
// would silently corrupt the phase clock.
func TestScenarioCheckpointFingerprintGuard(t *testing.T) {
	cfg := core.BaseConfig(1, 8*core.MB, 1)
	o := invariantOptions()
	o.Scenario = compileProfile(t, mixFlipProfile())

	var last []byte
	if _, _, err := o.RunScenarioCheckpointed(cfg, CheckpointRun{
		Every: 40,
		Write: func(data []byte) error {
			last = append(last[:0], data...)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no checkpoint written")
	}

	other := o
	other.Scenario = compileProfile(t, skewDriftProfile())
	if _, _, err := other.RunScenarioCheckpointed(cfg, CheckpointRun{Resume: last}); err == nil {
		t.Fatal("resuming under a different scenario was accepted")
	}
}
