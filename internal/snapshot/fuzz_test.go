package snapshot

import (
	"bytes"
	"testing"
)

// fuzzSeed returns a well-formed two-section container exercising every
// primitive the encoder offers; the fuzzer mutates it from there.
func fuzzSeed() []byte {
	w := NewWriter()
	e := w.Section("alpha")
	e.U64(42)
	e.U32(7)
	e.U8(3)
	e.Bool(true)
	e.F64(1.5)
	e.Int(-9)
	e.U64s([]uint64{1, 2, 3})
	e.U8s([]byte("payload"))
	e.I64s([]int64{-1, 0, 1})
	e.F64s([]float64{0.5, -0.25})
	e.String("hello")
	w.Section("beta").U64(1)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotDecode feeds arbitrary bytes through the full decode surface:
// container parsing, section lookup, and every typed Decoder read. The
// contract under fuzz is the package's core promise — corrupted, truncated,
// or hostile input produces an error, never a panic and never an allocation
// larger than the input itself. For inputs that do parse, the format must be
// canonical: re-emitting the parsed sections reproduces the input byte for
// byte.
func FuzzSnapshotDecode(f *testing.F) {
	valid := fuzzSeed()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(valid[:len(valid)-5]) // truncated mid-stream
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // CRC mismatch
	f.Add(flipped)
	f.Add(wrappingSliceLen())
	f.Add(hugeDirectoryHeader())
	f.Add(hugeSliceClaim())
	f.Add(oversizedLength())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Parse(data)
		if err != nil {
			return
		}
		// Canonical-format invariant: parse followed by emit is the identity
		// on every accepted stream.
		w := NewWriter()
		for i, name := range r.names {
			enc := w.Section(name)
			enc.buf = append(enc.buf, r.payloads[i]...)
		}
		var out bytes.Buffer
		if _, err := w.WriteTo(&out); err != nil {
			t.Fatalf("re-emit parsed stream: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("parse/emit round trip diverged (%d vs %d bytes)", out.Len(), len(data))
		}
		// Drain every section through the typed decoders; whatever the
		// payload bytes claim, reads must stay in bounds and errors sticky.
		for _, name := range r.names {
			d, err := r.Section(name)
			if err != nil {
				t.Fatalf("section %q: %v", name, err)
			}
			drainSection(d)
			_ = d.Finish()
		}
		_ = r.Finish()
	})
}

// drainSection walks a payload with a data-driven mix of typed reads, so the
// fuzzer steers which decode paths see which bytes.
func drainSection(d *Decoder) {
	for d.Err() == nil && d.Remaining() > 0 {
		switch d.U8() % 10 {
		case 0:
			d.U64()
		case 1:
			d.U32()
		case 2:
			d.U8()
		case 3:
			d.Bool()
		case 4:
			d.F64()
		case 5:
			_ = d.U64s()
		case 6:
			_ = d.U8s()
		case 7:
			_ = d.I64s()
		case 8:
			_ = d.F64s()
		case 9:
			_ = d.String()
		}
	}
}
