package experiments

import (
	"bytes"
	"testing"

	"oltpsim/internal/scenario"
	"oltpsim/internal/stats"
)

// encodedCheckpoint emits c, failing the test on error.
func encodedCheckpoint(tb testing.TB, c checkpoint) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := c.encode(&buf, c.system); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint container
// decoder, up to but not including the machine restore. Malformed input
// must return an error, never panic; an accepted container carries at most
// scenario.MaxPhases completed segments and re-encodes to the identical
// bytes, so the format has one spelling per checkpoint.
func FuzzCheckpointDecode(f *testing.F) {
	steady := encodedCheckpoint(f, checkpoint{
		pos:    posWarmed,
		proto:  protocol{warmup: 90, measure: 180, quick: true},
		system: []byte("machine"),
	})
	phased := encodedCheckpoint(f, checkpoint{
		pos:         posMeasuring,
		measureBase: 90,
		proto:       protocol{warmup: 90, measure: 120, seed: 7, quick: true, profile: "scenario1|burst"},
		cums:        []stats.RunResult{{Name: "All 2M8w", Txns: 40}, {Name: "All 2M8w", Txns: 90, L1IMissRate: 0.25}},
		system:      []byte("machine"),
	})
	f.Add(steady)
	f.Add(phased)
	f.Add(parentContainer(false, []byte("machine")))
	f.Add(parentContainer(true, []byte("machine")))
	f.Add(phased[:len(phased)-5])
	flipped := append([]byte(nil), steady...)
	flipped[len(flipped)-1] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		if len(ck.cums) > scenario.MaxPhases {
			t.Fatalf("accepted %d completed segments, limit %d", len(ck.cums), scenario.MaxPhases)
		}
		if again := encodedCheckpoint(t, ck); !bytes.Equal(again, data) {
			t.Fatalf("decode/encode round trip diverged (%d vs %d bytes)", len(again), len(data))
		}
	})
}
