package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/oltp"
	"oltpsim/internal/snapshot"
)

// pinnedVersion is the snapshot format the digests below were recorded
// under. A format change bumps snapshot.Version and re-records the
// digests beside it; a change that keeps the version must keep the bytes.
const pinnedVersion = 11

// TestWarmedCheckpointDigests pins the checkpoint bytes of three quick
// machines, one per shape the machine snapshot serializes: a uniprocessor
// with a direct-mapped 8 MB L2, an 8-node machine with a RAC, and the
// 64-node machine. Each is warmed through QuickOptions' warmup and saved as
// the container Execute writes at the end of warmup. A change to any
// structure's in-memory layout must leave these bytes as they are.
func TestWarmedCheckpointDigests(t *testing.T) {
	if snapshot.Version != pinnedVersion {
		t.Fatalf("snapshot.Version is %d, the digests were recorded under %d: re-record them with the new format",
			snapshot.Version, pinnedVersion)
	}
	rac := core.FullConfig(8, 1*core.MB, 4)
	rac.RACBytes = 8 * core.MB
	for _, tc := range []struct {
		cfg    core.Config
		digest string
	}{
		{core.BaseConfig(1, 8*core.MB, 1), "55a15f1bf6fcf14c2cfbef32b4db2faa51d8afabfd3f9466db9d19fa57fad134"},
		{rac, "dbcb6897d427e7e74b9fccf97ea6762e136a01c8b3502a7c5d0bb4d1debe4310"},
		{core.FullConfig(64, 2*core.MB, 8), "0d606e87de40bb7163df6ec61699fd81f89f0f3b0f692304c9f7ed8b6144db23"},
	} {
		name := fmt.Sprintf("%d-CPU %s RAC=%d", tc.cfg.Processors, tc.cfg.Name, tc.cfg.RACBytes)
		t.Run(name, func(t *testing.T) {
			o := QuickOptions()
			sys := core.MustNewSystem(tc.cfg, oltp.MustNewHarness(o.Params(tc.cfg)))
			sys.RunUntil(o.WarmupTxns)
			ck, err := o.WarmedCheckpoint(sys)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			n, err := ck.WriteTo(h)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("warmed checkpoint (%d bytes) has SHA-256 %s, want %s", n, got, tc.digest)
			}
		})
	}
}

// TestWideMachineGolden pins the whole result of the quick 64- and 128-node
// Full 2M8w machines under BenchmarkStep64Serial's protocol (200 warmup and
// 400 measured transactions). figures_output.txt covers only 1 and 8 CPUs;
// these are the shapes whose directories and tag arrays are largest, and
// 128 nodes is the only one that sets the sharer set's second word.
func TestWideMachineGolden(t *testing.T) {
	for _, procs := range []int{64, 128} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			o := QuickOptions()
			o.WarmupTxns, o.MeasureTxns = 200, 400
			got, err := json.MarshalIndent(o.Run(core.FullConfig(procs, 2*core.MB, 8)), "", "\t")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", fmt.Sprintf("wide_full_2M8w_%d.json", procs)), append(got, '\n'))
		})
	}
}
