package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
)

// hostileStream returns a CRC-valid stream holding one section whose
// payload is fill's encoding.
func hostileStream(name string, fill func(*Encoder)) []byte {
	w := NewWriter()
	fill(w.Section(name))
	var buf bytes.Buffer
	if err := w.Emit(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// wrappingSliceLen claims 2^61+1 eight-byte elements backed by one: the
// claimed byte count wraps around to 8, which the remaining input covers.
func wrappingSliceLen() []byte {
	return hostileStream("huge", func(e *Encoder) {
		e.Int(1<<61 + 1)
		e.U64(0)
	})
}

// hugeDirectoryHeader is the 16-byte directory header of snapshot version
// 1 asking for a table of 2^44 slots with no live entries. Version 2 reads
// its first word as the live count.
func hugeDirectoryHeader() []byte {
	return hostileStream("directory", func(e *Encoder) {
		e.Int(1 << 44)
		e.Int(0)
	})
}

// hugeSliceClaim is a U64s length of 2^40 elements with no bytes behind
// it: the fuzz target's drainSection reads the leading 5 as a U64s read.
func hugeSliceClaim() []byte {
	return hostileStream("huge", func(e *Encoder) {
		e.U8(5)
		e.U64(1 << 40)
	})
}

// oversizedLength is a section header claiming 2^40 payload bytes with 8
// behind it, its CRC recomputed so the claim reaches the section walk.
func oversizedLength() []byte {
	data := hostileStream("s", func(e *Encoder) { e.U64(7) })
	binary.LittleEndian.PutUint64(data[len(Magic)+4+2+len("s"):], 1<<40)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	return data
}

// TestHostileSeedsReachTheirChecks: the fuzz target's current-version
// hostile seeds get past the version and CRC checks, and each is refused
// by the length check it was written for.
func TestHostileSeedsReachTheirChecks(t *testing.T) {
	if _, err := parse(oversizedLength()); err == nil || !strings.Contains(err.Error(), "claims 1099511627776 bytes") {
		t.Errorf("oversized section length: parse error %v, want the claimed length refused", err)
	}
	r, err := parse(hugeSliceClaim())
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("huge")
	if err != nil {
		t.Fatal(err)
	}
	drainSection(d)
	if d.Err() == nil {
		t.Error("a U64s length of 2^40 backed by no bytes was accepted")
	}
}

// TestSliceLengthWrapRefused: a length prefix whose byte count overflows
// int64 is refused by every typed slice reader, not handed to make.
func TestSliceLengthWrapRefused(t *testing.T) {
	for name, read := range map[string]func(*Decoder){
		"U64s": func(d *Decoder) { _ = d.U64s() },
		"I64s": func(d *Decoder) { _ = d.I64s() },
		"F64s": func(d *Decoder) { _ = d.F64s() },
	} {
		r, err := NewReader(bytes.NewReader(wrappingSliceLen()))
		if err != nil {
			t.Fatal(err)
		}
		d, err := r.Section("huge")
		if err != nil {
			t.Fatal(err)
		}
		read(d)
		if d.Err() == nil {
			t.Errorf("%s accepted a length of 2^61+1 elements backed by 8 bytes", name)
		}
	}
}

// TestVersionErrorTyped: a stream of another version is refused with a
// *VersionError carrying the version it was written in.
func TestVersionErrorTyped(t *testing.T) {
	data := hostileStream("alpha", func(e *Encoder) { e.U64(1) })
	data[len(Magic)] = 1
	_, err := NewReader(bytes.NewReader(data))
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != 1 {
		t.Fatalf("error %v, want a *VersionError for version 1", err)
	}
}

// TestEmitMatchesWholeStreamCRC: the streamed emitter produces the framing
// and trailing CRC a reader checks, for an empty writer, for sections large
// enough to need the encoder to grow many times, and for a section that
// embeds another writer's stream.
func TestEmitMatchesWholeStreamCRC(t *testing.T) {
	big := make([]uint64, 100_000)
	for i := range big {
		big[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for _, w := range []*Writer{NewWriter(), func() *Writer {
		w := NewWriter()
		w.Section("small").String("x")
		e := w.Section("big")
		for _, v := range big {
			e.U64(v)
		}
		w.Section("slice").U64s(big)
		inner := NewWriter()
		inner.Section("inner").String("embedded")
		e = w.Section("embed")
		e.U64(1)
		e.Embed(inner)
		e.U64(2)
		return w
	}()} {
		var buf bytes.Buffer
		if err := w.Emit(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := parse(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if len(r.names) != len(w.names) {
			t.Fatalf("parsed %d sections, emitted %d", len(r.names), len(w.names))
		}
		for i := range r.names {
			if !bytes.Equal(r.payloads[i], bytes.Join(w.payloads[i], nil)) {
				t.Errorf("section %q payload changed in transit", r.names[i])
			}
		}
	}
}

// TestEmbedMatchesU8sOfEmit: embedding a writer appends exactly the bytes
// U8s appends for that writer's emitted stream.
func TestEmbedMatchesU8sOfEmit(t *testing.T) {
	inner := NewWriter()
	inner.Section("alpha").U64s([]uint64{1, 2, 3})
	inner.Section("beta").String("x")
	var flat bytes.Buffer
	if err := inner.Emit(&flat); err != nil {
		t.Fatal(err)
	}
	emit := func(fill func(*Encoder)) []byte {
		w := NewWriter()
		e := w.Section("outer")
		e.U32(7)
		fill(e)
		e.U32(9)
		var buf bytes.Buffer
		if err := w.Emit(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	embedded := emit(func(e *Encoder) { e.Embed(inner) })
	copied := emit(func(e *Encoder) { e.U8s(flat.Bytes()) })
	if !bytes.Equal(embedded, copied) {
		t.Fatalf("Embed wrote %d bytes, U8s of the emitted stream %d", len(embedded), len(copied))
	}
}
