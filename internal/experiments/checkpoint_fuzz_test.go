package experiments

import (
	"bytes"
	"testing"

	"oltpsim/internal/cache"
	"oltpsim/internal/core"
	"oltpsim/internal/scenario"
	"oltpsim/internal/snapshot"
	"oltpsim/internal/stats"
)

// encodedCheckpoint emits c, failing the test on error.
func encodedCheckpoint(tb testing.TB, c checkpoint) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := c.encode(&buf, func(e *snapshot.Encoder) { e.U8s(c.system) }); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// badBalanceTables returns machine streams whose workload section opens
// with a sparse account table of 10 rows that the engine's load refuses:
// the wrong length, unsorted, duplicate and out-of-range rows, a zero
// balance, and a nonzero count the remaining input cannot back.
func badBalanceTables() [][]byte {
	var out [][]byte
	for _, words := range [][]int64{
		{9, 0},
		{10, 2, 9, 5, 3, 7},
		{10, 2, 9, 5, 9, 7},
		{10, 1, 10, 5},
		{10, 1, -1, 5},
		{10, 2, 3, 5, 9, 0},
		{10, 3, 3, 5, 9, 7},
	} {
		w := snapshot.NewWriter()
		e := w.Section("workload")
		for _, v := range words {
			e.I64(v)
		}
		var buf bytes.Buffer
		if err := w.Emit(&buf); err != nil {
			panic(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// badFrameBlocks returns machine streams whose workload section holds a
// saved one-frame buffer pool whose frame holds a block past every
// database scale: 51,116, one past the paper database's last block, and
// 2^32 + 5, which narrowed to int32 before the range check would pass as
// block 5.
func badFrameBlocks() [][]byte {
	var out [][]byte
	for _, block := range []int64{51_116, 1<<32 + 5} {
		w := snapshot.NewWriter()
		e := w.Section("workload")
		e.Int(1) // frames
		e.I64(block)
		e.Bool(false) // dirty
		e.Bool(false) // queued for the database writer
		e.U64(0)      // last use
		var buf bytes.Buffer
		if err := w.Emit(&buf); err != nil {
			panic(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// duplicateLineMachine returns a machine stream for the 1-CPU Base 1M1w
// whose first cache, CPU 0's 2-way L1I, holds line 0 as Modified in both
// ways of set 0: a copy that would survive its own invalidation, so the
// cache's load refuses it.
func duplicateLineMachine() []byte {
	cfg := core.BaseConfig(1, 1*core.MB, 1)
	l1i := make([]uint64, core.L1Bytes/64)
	l1i[0] = uint64(cache.Modified)<<1 | 1
	l1i[1] = l1i[0]
	w := snapshot.NewWriter()
	w.Section("config").String(cfg.Fingerprint())
	e := w.Section("machine")
	e.U64s([]uint64{0}) // per-core clocks
	e.U64(0)            // write-invalidate operations
	e.U64(0)            // steps
	e.U64s(l1i)
	e.U64(0) // accesses
	e.U64(0) // hits
	var buf bytes.Buffer
	if err := w.Emit(&buf); err != nil {
		panic(err)
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
	for v := uint32(1); v < snapshot.Version; v++ {
		f.Add(withVersion(steady, v))
	}
	f.Add(encodedCheckpoint(f, checkpoint{
		pos:    posWarmed,
		proto:  protocol{warmup: 90, measure: 180, quick: true},
		system: duplicateLineMachine(),
	}))
	for _, machine := range append(badBalanceTables(), badFrameBlocks()...) {
		f.Add(encodedCheckpoint(f, checkpoint{
			pos:    posWarmed,
			proto:  protocol{warmup: 90, measure: 180, quick: true},
			system: machine,
		}))
	}
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
