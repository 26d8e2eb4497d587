// Package snapshot provides the binary container format and the primitive
// encoders/decoders used to checkpoint complete simulator state.
//
// The format is deliberately simple and strict:
//
//	magic "OLTPSNAP" | version u32 | section* | crc32 u32
//	section := nameLen u16 | name | payloadLen u64 | payload
//
// All integers are little-endian and fixed-width, floats travel as their
// IEEE-754 bit patterns, and the trailing CRC covers every preceding byte.
// Decoding never trusts a length field: every read is bounds-checked against
// the remaining input, so a corrupted or truncated snapshot produces an
// error (never a panic or an unbounded allocation). Sections are named so a
// reader can verify it consumed exactly the sections a writer produced —
// silent truncation and silent trailing garbage are both decode errors.
//
// The package is a leaf: stateful packages (cache, coherence, kernel, ...)
// implement their own save/load methods in terms of Encoder/Decoder, and
// core.System.Save/Load orchestrates the named sections.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Magic identifies a snapshot stream.
const Magic = "OLTPSNAP"

// Version is the current format version. Load refuses any other version
// with a *VersionError: state layout changes must bump it.
const Version uint32 = 8

// VersionError reports a stream written in another format version, so a
// caller can tell an outdated stream from a corrupt one.
type VersionError struct {
	Got uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: version %d, want %d", e.Got, Version)
}

// maxSectionName bounds section names; anything longer is corruption.
const maxSectionName = 255

// Writer accumulates named sections and emits the framed, checksummed
// stream. Sections are written in the order they are opened, which makes the
// byte stream a deterministic function of the save calls.
type Writer struct {
	names    []string
	payloads [][][]byte // each section's payload, in parts
	cur      *Encoder
}

// NewWriter returns an empty snapshot writer.
func NewWriter() *Writer { return &Writer{} }

// Section opens a new named section and returns the encoder for its
// payload. The previous section (if any) is sealed.
func (w *Writer) Section(name string) *Encoder {
	if len(name) == 0 || len(name) > maxSectionName {
		panic(fmt.Sprintf("snapshot: section name %q out of range", name))
	}
	w.seal()
	w.names = append(w.names, name)
	w.cur = &Encoder{}
	return w.cur
}

func (w *Writer) seal() {
	if w.cur != nil {
		w.payloads = append(w.payloads, append(w.cur.parts, w.cur.buf))
		w.cur = nil
	}
}

// frame returns the stream Emit writes, less its trailing CRC, as parts:
// the magic and version, then each section's header and payload parts.
func (w *Writer) frame() [][]byte {
	w.seal()
	parts := [][]byte{binary.LittleEndian.AppendUint32([]byte(Magic), Version)}
	for i, name := range w.names {
		hdr := binary.LittleEndian.AppendUint16(make([]byte, 0, 10+len(name)), uint16(len(name)))
		hdr = append(hdr, name...)
		parts = append(parts, binary.LittleEndian.AppendUint64(hdr, uint64(payloadLen(w.payloads[i]))))
		parts = append(parts, w.payloads[i]...)
	}
	return parts
}

// Emit seals the last section and writes the complete stream. Each header
// and payload goes straight to out under a running CRC, so emitting never
// copies the stream into one buffer of its own; an out that can reserve
// room, such as a bytes.Buffer, reserves the whole stream up front.
func (w *Writer) Emit(out io.Writer) error {
	parts := w.frame()
	if g, ok := out.(interface{ Grow(int) }); ok {
		g.Grow(payloadLen(parts) + 4)
	}
	crc := crc32.NewIEEE()
	body := io.MultiWriter(out, crc)
	for _, part := range parts {
		if _, err := body.Write(part); err != nil {
			return err
		}
	}
	_, err := out.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return err
}

// Embed appends the stream w would emit as a length-prefixed byte string,
// the bytes U8s would append for it, but refers to w's payloads instead of
// copying them: w must not change until this encoder's stream is emitted.
func (e *Encoder) Embed(w *Writer) {
	parts := w.frame()
	crc := crc32.NewIEEE()
	for _, part := range parts {
		crc.Write(part)
	}
	e.Int(payloadLen(parts) + 4)
	e.parts = append(append(e.parts, e.buf), parts...)
	e.buf = binary.LittleEndian.AppendUint32(nil, crc.Sum32())
}

func payloadLen(parts [][]byte) int {
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	return n
}

// Reader parses a complete snapshot stream: it validates the magic, the
// version, and the CRC up front, then hands out per-section decoders.
type Reader struct {
	names    []string
	payloads [][]byte
	read     []bool
}

// NewReader validates and indexes a snapshot stream read from r.
func NewReader(r io.Reader) (*Reader, error) {
	data, err := io.ReadAll(io.LimitReader(r, 1<<32))
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading stream: %w", err)
	}
	return parse(data)
}

// parse is the allocation-bounded core of NewReader, shared with the fuzz
// target. It never allocates more than O(len(data)) regardless of what the
// length fields claim.
func parse(data []byte) (*Reader, error) {
	const headerLen = len(Magic) + 4
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("snapshot: stream too short (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", data[:len(Magic)])
	}
	if v := binary.LittleEndian.Uint32(data[len(Magic):]); v != Version {
		return nil, &VersionError{Got: v}
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("snapshot: CRC mismatch (got %#x, want %#x)", got, want)
	}
	rd := &Reader{}
	rest := body[headerLen:]
	for len(rest) > 0 {
		if len(rest) < 2 {
			return nil, fmt.Errorf("snapshot: truncated section header")
		}
		nameLen := int(binary.LittleEndian.Uint16(rest))
		rest = rest[2:]
		if nameLen == 0 || nameLen > maxSectionName || nameLen > len(rest) {
			return nil, fmt.Errorf("snapshot: section name length %d out of range", nameLen)
		}
		name := string(rest[:nameLen])
		rest = rest[nameLen:]
		if len(rest) < 8 {
			return nil, fmt.Errorf("snapshot: section %q truncated before length", name)
		}
		payloadLen := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		if payloadLen > uint64(len(rest)) {
			return nil, fmt.Errorf("snapshot: section %q claims %d bytes, only %d remain", name, payloadLen, len(rest))
		}
		for _, prev := range rd.names {
			if prev == name {
				return nil, fmt.Errorf("snapshot: duplicate section %q", name)
			}
		}
		rd.names = append(rd.names, name)
		rd.payloads = append(rd.payloads, rest[:payloadLen])
		rd.read = append(rd.read, false)
		rest = rest[payloadLen:]
	}
	return rd, nil
}

// Section returns the decoder for a named section, erroring if absent or
// already consumed.
func (r *Reader) Section(name string) (*Decoder, error) {
	for i, n := range r.names {
		if n != name {
			continue
		}
		if r.read[i] {
			return nil, fmt.Errorf("snapshot: section %q read twice", name)
		}
		r.read[i] = true
		return &Decoder{buf: r.payloads[i], section: name}, nil
	}
	return nil, fmt.Errorf("snapshot: section %q missing", name)
}

// Finish errors if any section was never consumed — a snapshot from a
// machine with components this reader does not know about must not load
// silently.
func (r *Reader) Finish() error {
	for i, ok := range r.read {
		if !ok {
			return fmt.Errorf("snapshot: unconsumed section %q", r.names[i])
		}
	}
	return nil
}

// Encoder appends fixed-width primitives to a section payload.
type Encoder struct {
	buf   []byte   // the payload's open part
	parts [][]byte // the full parts before buf, in order
}

// grow makes room for n more bytes. A full part is kept as it is and the
// next one is at least twice its size, so building a section allocates at
// most about twice its final size and never copies what it already holds;
// growing one slice by append costs about five times, because append's
// growth falls to about 1.25x for large slices.
func (e *Encoder) grow(n int) {
	if cap(e.buf)-len(e.buf) < n {
		if len(e.buf) > 0 {
			e.parts = append(e.parts, e.buf)
		}
		e.buf = make([]byte, 0, max(n, 2*cap(e.buf), 64))
	}
}

// U64 appends v.
func (e *Encoder) U64(v uint64) {
	e.grow(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// U32 appends v.
func (e *Encoder) U32(v uint32) {
	e.grow(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U8 appends v.
func (e *Encoder) U8(v uint8) {
	e.grow(1)
	e.buf = append(e.buf, v)
}

// I64 appends v as its two's-complement bits.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends v as a 64-bit integer.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends v as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// F64 appends v's IEEE-754 bit pattern, preserving it exactly (including
// NaN payloads and signed zeros).
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// U64s appends a length-prefixed slice.
func (e *Encoder) U64s(vs []uint64) {
	e.grow(8 + 8*len(vs))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(len(vs)))
	for _, v := range vs {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	}
}

// U8s appends a length-prefixed byte slice.
func (e *Encoder) U8s(vs []uint8) {
	e.grow(8 + len(vs))
	e.Int(len(vs))
	e.buf = append(e.buf, vs...)
}

// I64s appends a length-prefixed slice of signed integers.
func (e *Encoder) I64s(vs []int64) {
	e.grow(8 + 8*len(vs))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(len(vs)))
	for _, v := range vs {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
	}
}

// F64s appends a length-prefixed slice of floats.
func (e *Encoder) F64s(vs []float64) {
	e.grow(8 + 8*len(vs))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(len(vs)))
	for _, v := range vs {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
	}
}

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.grow(8 + len(s))
	e.Int(len(s))
	e.buf = append(e.buf, s...)
}

// Decoder reads the primitives back with strict bounds checking. Errors are
// sticky: after the first failure every read returns the zero value, and
// Err/Finish report the original cause, so load code reads straight through
// and checks once.
type Decoder struct {
	buf     []byte
	off     int
	section string
	err     error
}

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes in the section. Callers
// decoding variable-length structures use it to bound allocations by the
// input that could actually back them.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: section %q: %s", d.section, fmt.Sprintf(format, args...))
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.fail("need %d bytes at offset %d, have %d", n, d.off, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U64 reads one value.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads one value.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// I64 reads one signed value.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads a 64-bit integer into an int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool reads one byte, rejecting anything but 0 or 1.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool byte at offset %d", d.off-1)
		return false
	}
}

// F64 reads one float from its bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// sliceLen reads a length prefix and bounds it by the bytes remaining in
// the section (elemBytes per element), so a hostile length cannot force an
// allocation larger than the input itself.
func (d *Decoder) sliceLen(elemBytes int) int {
	n := d.I64()
	if d.err != nil {
		return 0
	}
	// Compare by division: n*elemBytes wraps around for hostile n.
	if n < 0 || n > int64((len(d.buf)-d.off)/elemBytes) {
		d.fail("slice length %d exceeds remaining input", n)
		return 0
	}
	return int(n)
}

// U64s reads a length-prefixed slice.
func (d *Decoder) U64s() []uint64 {
	n := d.sliceLen(8)
	if n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = d.U64()
	}
	return vs
}

// U8s reads a length-prefixed byte slice.
func (d *Decoder) U8s() []uint8 {
	n := d.sliceLen(1)
	if n == 0 {
		return nil
	}
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]uint8, n)
	copy(out, b)
	return out
}

// I64s reads a length-prefixed slice of signed integers.
func (d *Decoder) I64s() []int64 {
	n := d.sliceLen(8)
	if n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = d.I64()
	}
	return vs
}

// F64s reads a length-prefixed slice of floats.
func (d *Decoder) F64s() []float64 {
	n := d.sliceLen(8)
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = d.F64()
	}
	return vs
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.sliceLen(1)
	if n == 0 {
		return ""
	}
	b := d.take(n)
	return string(b)
}

// Finish errors if the section has leftover bytes or a pending error.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("snapshot: section %q: %d trailing bytes", d.section, len(d.buf)-d.off)
	}
	return nil
}
