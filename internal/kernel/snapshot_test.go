package kernel

import (
	"bytes"
	"reflect"
	"testing"

	"oltpsim/internal/memref"
	"oltpsim/internal/snapshot"
)

// rawRef is one reference as encodeRefs lays it out, with fields wide
// enough to hold values no memref.Ref can.
type rawRef struct {
	addr    uint64
	kind    uint8
	kernel  bool
	depPrev bool
	instrs  uint32
}

// decoderFor returns a decoder over the section fill writes.
func decoderFor(t *testing.T, fill func(e *snapshot.Encoder)) *snapshot.Decoder {
	t.Helper()
	w := snapshot.NewWriter()
	fill(w.Section("refs"))
	var buf bytes.Buffer
	if err := w.Emit(&buf); err != nil {
		t.Fatal(err)
	}
	rd, err := snapshot.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rd.Section("refs")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// refStream encodes refs field by field, as encodeRefs does.
func refStream(t *testing.T, refs []rawRef) *snapshot.Decoder {
	return decoderFor(t, func(e *snapshot.Encoder) {
		e.Int(len(refs))
		for _, r := range refs {
			e.U64(r.addr)
			e.U8(r.kind)
			e.Bool(r.kernel)
			e.Bool(r.depPrev)
			e.U32(r.instrs)
		}
	})
}

// TestRefCodecRoundTrip: references at the limits of every field survive
// encodeRefs and decodeRefs unchanged.
func TestRefCodecRoundTrip(t *testing.T) {
	want := []memref.Ref{
		memref.New(0, memref.IFetch, false, false, 0),
		memref.New(memref.MaxAddr, memref.IFetch, true, false, memref.MaxInstrs),
		memref.New(0xdead0040, memref.Load, false, true, 0),
		memref.New(memref.MaxAddr-63, memref.Store, true, true, 16),
	}
	got, err := decodeRefs(decoderFor(t, func(e *snapshot.Encoder) { encodeRefs(e, want) }))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
}

// TestDecodeRefsRefusesImpossibleRefs: a saved reference that no generator
// can produce is refused by index before any machine runs it, rather than
// being run as a reference no counter sees (an unknown kind) or with a
// truncated instruction count.
func TestDecodeRefsRefusesImpossibleRefs(t *testing.T) {
	good := rawRef{addr: 0x4000, kind: uint8(memref.IFetch), instrs: 16}
	cases := []struct {
		name string
		bad  rawRef
		want string
	}{
		{"unknown kind", rawRef{addr: 0x4000, kind: 3}, "kernel: reference 1 has unknown kind 3"},
		{"address beyond 48 bits", rawRef{addr: memref.MaxAddr + 1, kind: uint8(memref.Load)},
			"kernel: reference 1 address 0x1000000000000 exceeds 0xffffffffffff"},
		{"instruction count beyond 12 bits", rawRef{addr: 0x4000, instrs: memref.MaxInstrs + 1},
			"kernel: reference 1 instruction count 4096 exceeds 4095"},
		{"instruction count beyond 16 bits", rawRef{addr: 0x4000, instrs: 1<<16 + 5},
			"kernel: reference 1 instruction count 65541 exceeds 4095"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			refs, err := decodeRefs(refStream(t, []rawRef{good, c.bad}))
			if err == nil || err.Error() != c.want {
				t.Fatalf("decodeRefs = %v, %v; want error %q", refs, err, c.want)
			}
		})
	}
	// The same stream with the good reference alone is accepted.
	refs, err := decodeRefs(refStream(t, []rawRef{good}))
	if err != nil || len(refs) != 1 || refs[0] != memref.New(0x4000, memref.IFetch, false, false, 16) {
		t.Fatalf("decodeRefs(good) = %v, %v", refs, err)
	}
}
