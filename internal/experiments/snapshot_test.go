package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/oltp"
)

// TestSnapshotEquivalence is the determinism contract for checkpoint/restore:
// for every machine shape the figures sweep, a run that saves its warm state,
// is discarded, and resumes in a freshly built machine must be bit-identical
// to an uninterrupted run — same RunResult, same final machine state down to
// every counter — and Save→Load→Save must reproduce the snapshot byte for
// byte.
func TestSnapshotEquivalence(t *testing.T) {
	o := invariantOptions()
	for _, cfg := range invariantConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			// Uninterrupted reference run through the public protocol.
			resA := o.Run(cfg)

			// The same run, checkpointing its warm state mid-flight. Save is
			// read-only, so this run must match the reference exactly.
			sysB := core.MustNewSystem(cfg, oltp.MustNewHarness(o.Params(cfg)))
			sysB.RunUntil(o.WarmupTxns)
			var warm bytes.Buffer
			if err := sysB.Save(&warm); err != nil {
				t.Fatalf("save warm state: %v", err)
			}
			resB := sysB.RunMeasured(o.MeasureTxns)
			resB.Name = cfg.Name
			if !reflect.DeepEqual(resA, resB) {
				t.Fatalf("saving a snapshot perturbed the run:\n%+v\nvs\n%+v", resA, resB)
			}
			var finalB bytes.Buffer
			if err := sysB.Save(&finalB); err != nil {
				t.Fatalf("save final state: %v", err)
			}

			// Restore into a fresh machine; the round trip must be byte-stable.
			sysC := core.MustNewSystem(cfg, oltp.MustNewHarness(o.Params(cfg)))
			if err := sysC.Load(bytes.NewReader(warm.Bytes())); err != nil {
				t.Fatalf("load warm state: %v", err)
			}
			var warm2 bytes.Buffer
			if err := sysC.Save(&warm2); err != nil {
				t.Fatalf("re-save warm state: %v", err)
			}
			if !bytes.Equal(warm.Bytes(), warm2.Bytes()) {
				t.Fatal("save-load-save warm state is not byte-stable")
			}

			// Resume: result and complete final machine state must match the
			// uninterrupted run bit for bit.
			resC := sysC.RunMeasured(o.MeasureTxns)
			resC.Name = cfg.Name
			if !reflect.DeepEqual(resB, resC) {
				t.Fatalf("resumed result diverges:\n%+v\nvs\n%+v", resB, resC)
			}
			var finalC bytes.Buffer
			if err := sysC.Save(&finalC); err != nil {
				t.Fatalf("save resumed final state: %v", err)
			}
			if !bytes.Equal(finalB.Bytes(), finalC.Bytes()) {
				t.Fatal("final machine state diverges after resume")
			}
			checkConservation(t, cfg, sysC, resC)
		})
	}
}

// TestSnapshotConfigMismatch: restoring into a machine of a different shape
// must fail loudly, never silently produce a franken-state.
func TestSnapshotConfigMismatch(t *testing.T) {
	o := invariantOptions()
	src := core.BaseConfig(8, 8*core.MB, 1)
	sys := o.build(src)
	sys.RunUntil(o.WarmupTxns)
	var snap bytes.Buffer
	if err := sys.Save(&snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	other := o.build(core.FullConfig(8, 2*core.MB, 8))
	if err := other.Load(bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("loading a snapshot into a different configuration succeeded")
	}
}
