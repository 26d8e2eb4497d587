package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"oltpsim/internal/core"
)

// finalState runs cfg under o through the driver and returns the result and
// the final machine state, read from the end-of-measurement checkpoint.
func finalState(t *testing.T, o Options, cfg core.Config) (ScenarioResult, []byte) {
	t.Helper()
	sr, cks := checkpointsOf(t, o, cfg, o.WarmupTxns+o.MeasuredTxns())
	ck, err := decodeCheckpoint(cks[len(cks)-1])
	if err != nil {
		t.Fatal(err)
	}
	return sr, ck.system
}

// TestScenarioSinglePhaseIsSteadyState pins the opt-in contract at its
// sharpest point: a single-phase pure-update profile must reproduce the
// steady-state run byte for byte — the identical RunResult and the
// identical final machine state — because the degenerate schedule draws
// from exactly the same RNG stream as the steady generator. A steady run
// is itself one segment equal to its total.
func TestScenarioSinglePhaseIsSteadyState(t *testing.T) {
	cfg := core.FullConfig(8, 2*core.MB, 8)
	steady := invariantOptions()
	phased := steady
	phased.Scenario = compileProfile(t, steadyProfile(steady.MeasureTxns))

	refSR, refState := finalState(t, steady, cfg)
	refRes := refSR.Total
	gotSR, gotState := finalState(t, phased, cfg)

	if !reflect.DeepEqual(gotSR.Total, refRes) {
		t.Errorf("single-phase scenario result differs from steady state:\n got %+v\nwant %+v", gotSR.Total, refRes)
	}
	if !bytes.Equal(refState, gotState) {
		t.Errorf("final machine state differs: steady %d bytes, phased %d bytes", len(refState), len(gotState))
	}

	// The plain wrappers report the same total.
	sr := phased.RunScenario(cfg)
	if !reflect.DeepEqual(sr.Total, refRes) || !reflect.DeepEqual(steady.Run(cfg), refRes) {
		t.Errorf("RunScenario/Run total differs from the checkpointed steady-state result")
	}
	if len(sr.Phases) != 1 || !reflect.DeepEqual(sr.Phases[0].Result.Txns, refRes.Txns) {
		t.Errorf("degenerate schedule did not produce one full-length segment")
	}
	if len(refSR.Phases) != 1 || !reflect.DeepEqual(refSR.Phases[0].Result, refRes) {
		t.Errorf("steady run is not one segment equal to its total")
	}
}

// TestScenarioCheckpointFingerprintGuard: a resume must run under the
// protocol its checkpoint was written with. Warmup length, seed, database
// scale and scenario profile must match at every position, and once
// measurement has begun so must the measured length; the refusal names the
// differing field. A warmed steady checkpoint serves any measured length.
func TestScenarioCheckpointFingerprintGuard(t *testing.T) {
	cfg := core.BaseConfig(1, 8*core.MB, 1)
	steady := invariantOptions()
	phased := steady
	phased.Scenario = compileProfile(t, mixFlipProfile())

	// at returns the first checkpoint o writes at position pos.
	at := func(o Options, pos uint8) []byte {
		_, cks := checkpointsOf(t, o, cfg, 40)
		for _, data := range cks {
			if ck, err := decodeCheckpoint(data); err == nil && ck.pos == pos {
				return data
			}
		}
		t.Fatalf("no checkpoint at position %d", pos)
		return nil
	}
	steadyWarmed, steadyMid := at(steady, posWarmed), at(steady, posMeasuring)
	phasedWarmed, phasedMid := at(phased, posWarmed), at(phased, posMeasuring)

	with := func(o Options, edit func(*Options)) Options {
		edit(&o)
		return o
	}
	cases := []struct {
		name   string
		ck     []byte
		resume Options
		field  string // "" = accepted
	}{
		{"steady warmed, same protocol", steadyWarmed, steady, ""},
		{"steady warmed, other measured length", steadyWarmed, with(steady, func(o *Options) { o.MeasureTxns = 90 }), ""},
		{"steady mid-measurement, same protocol", steadyMid, steady, ""},
		{"steady mid-measurement, other measured length", steadyMid, with(steady, func(o *Options) { o.MeasureTxns = 90 }), "measured transactions"},
		{"steady warmed, other warmup", steadyWarmed, with(steady, func(o *Options) { o.WarmupTxns = 80 }), "warmup transactions"},
		{"steady mid-measurement, other seed", steadyMid, with(steady, func(o *Options) { o.Seed = 7 }), "seed"},
		{"steady warmed, other database scale", steadyWarmed, with(steady, func(o *Options) { o.Quick = false }), "quick database scale"},
		{"steady warmed, resumed phased", steadyWarmed, phased, "scenario profile"},
		{"phased warmed, same protocol", phasedWarmed, phased, ""},
		{"phased mid-measurement, same protocol", phasedMid, phased, ""},
		{"phased mid-measurement, other profile", phasedMid, with(phased, func(o *Options) { o.Scenario = compileProfile(t, skewDriftProfile()) }), "scenario profile"},
		{"phased warmed, other warmup", phasedWarmed, with(phased, func(o *Options) { o.WarmupTxns = 80 }), "warmup transactions"},
		{"phased mid-measurement, other seed", phasedMid, with(phased, func(o *Options) { o.Seed = 7 }), "seed"},
		{"phased mid-measurement, resumed steady", phasedMid, steady, "scenario profile"},
	}
	for _, tc := range cases {
		got, _, err := tc.resume.Execute(cfg, CheckpointRun{Resume: tc.ck})
		if tc.field == "" {
			if err != nil {
				t.Errorf("%s: refused: %v", tc.name, err)
			} else if want := tc.resume.RunScenario(cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: resumed result differs from a plain run under the resuming protocol", tc.name)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %v, want a refusal naming %q", tc.name, err, tc.field)
		}
	}
}
