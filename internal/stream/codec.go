package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Encoder serialises values into a byte slice using little-endian fixed
// width integers and length-prefixed byte strings. It is the hand-rolled
// stdlib-only wire format used for processing-state values, checkpoints
// and tuple payloads that must be measured or shipped between VMs.
//
// The zero value is an empty encoder ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity pre-allocated for n bytes.
func NewEncoder(n int) *Encoder { return &Encoder{buf: make([]byte, 0, n)} }

// Bytes returns the encoded buffer. The buffer is owned by the encoder
// until Reset is called; callers that retain it should copy.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the buffer contents, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Truncate discards everything encoded after offset n (from Len),
// letting a caller roll back a partially written value — e.g. a payload
// codec that failed halfway and falls back to another encoding.
func (e *Encoder) Truncate(n int) {
	if n >= 0 && n <= len(e.buf) {
		e.buf = e.buf[:n]
	}
}

// Uint64 appends a fixed-width 64-bit unsigned integer.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// Int64 appends a fixed-width 64-bit signed integer.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Uint32 appends a fixed-width 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// Int32 appends a fixed-width 32-bit signed integer.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint8 appends a single byte.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint8(1)
	} else {
		e.Uint8(0)
	}
}

// Float64 appends an IEEE-754 double.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Raw appends b as it is, for bytes that are already in wire form.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Bytes32 appends a byte string with a 32-bit length prefix.
func (e *Encoder) Bytes32(b []byte) {
	e.Uint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String32 appends a string with a 32-bit length prefix.
func (e *Encoder) String32(s string) {
	e.Uint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Uvarint appends an unsigned integer in LEB128 variable-width
// encoding: small values cost one byte instead of eight, which is what
// makes the binary batch frames compact.
func (e *Encoder) Uvarint(v uint64) {
	if v < 0x80 { // one-byte fast path: most counts, lengths and deltas
		e.buf = append(e.buf, byte(v))
		return
	}
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends a signed integer zigzag-encoded, so small magnitudes of
// either sign stay short (timestamp and clock deltas).
func (e *Encoder) Varint(v int64) {
	if zz := uint64(v<<1) ^ uint64(v>>63); zz < 0x80 { // one-byte fast path
		e.buf = append(e.buf, byte(zz))
		return
	}
	e.buf = binary.AppendVarint(e.buf, v)
}

// BytesV appends a byte string with a uvarint length prefix.
func (e *Encoder) BytesV(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// StringV appends a string with a uvarint length prefix, without an
// intermediate []byte conversion.
func (e *Encoder) StringV(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// BeginSection reserves a 64-bit length prefix for bytes not written
// yet and returns the mark EndSection needs; Decoder.Section reads the
// pair back. A reader can skip a section without understanding it.
func (e *Encoder) BeginSection() int {
	e.Uint64(0)
	return len(e.buf)
}

// EndSection fills the prefix reserved at mark with the number of bytes
// encoded since.
func (e *Encoder) EndSection(mark int) {
	binary.LittleEndian.PutUint64(e.buf[mark-8:], uint64(len(e.buf)-mark))
}

// Key appends a partitioning key.
func (e *Encoder) Key(k Key) { e.Uint64(uint64(k)) }

// ErrShortBuffer is returned by Decoder methods when the underlying buffer
// does not contain enough bytes for the requested value.
var ErrShortBuffer = errors.New("stream: decode past end of buffer")

// Decoder reads values written by Encoder. Decoder methods record the
// first error and become no-ops afterwards; check Err once at the end.
type Decoder struct {
	buf  []byte
	off  int
	err  error
	view string // lazy immutable copy of buf; see StringV
}

// NewDecoder wraps a buffer produced by Encoder.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Raw reads the next n bytes as they are. The returned slice aliases the
// decoder's buffer; copy if retained.
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrShortBuffer, n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint64 reads a fixed-width 64-bit unsigned integer.
func (d *Decoder) Uint64() uint64 {
	b := d.Raw(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int64 reads a fixed-width 64-bit signed integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Uint32 reads a fixed-width 32-bit unsigned integer.
func (d *Decoder) Uint32() uint32 {
	b := d.Raw(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Int32 reads a fixed-width 32-bit signed integer.
func (d *Decoder) Int32() int32 { return int32(d.Uint32()) }

// Uint8 reads a single byte.
func (d *Decoder) Uint8() uint8 {
	b := d.Raw(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean encoded as one byte.
func (d *Decoder) Bool() bool { return d.Uint8() != 0 }

// Float64 reads an IEEE-754 double.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Bytes32 reads a 32-bit length-prefixed byte string. The returned slice
// aliases the decoder's buffer; copy if retained.
func (d *Decoder) Bytes32() []byte {
	n := int(d.Uint32())
	return d.Raw(n)
}

// String32 reads a 32-bit length-prefixed string.
func (d *Decoder) String32() string { return string(d.Bytes32()) }

// Uvarint reads a LEB128 variable-width unsigned integer.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.buf) { // one-byte fast path
		if b := d.buf[d.off]; b < 0x80 {
			d.off++
			return uint64(b)
		}
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("%w: truncated or oversized uvarint at offset %d", ErrShortBuffer, d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag-encoded signed integer.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.buf) { // one-byte fast path
		if b := d.buf[d.off]; b < 0x80 {
			d.off++
			return int64(b>>1) ^ -int64(b&1)
		}
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("%w: truncated or oversized varint at offset %d", ErrShortBuffer, d.off)
		return 0
	}
	d.off += n
	return v
}

// BytesV reads a uvarint length-prefixed byte string. The returned slice
// aliases the decoder's buffer; copy if retained.
func (d *Decoder) BytesV() []byte {
	n := d.Uvarint()
	if n > uint64(d.Remaining()) {
		if d.err == nil {
			d.err = fmt.Errorf("%w: byte string of length %d", ErrShortBuffer, n)
		}
		return nil
	}
	return d.Raw(int(n))
}

// Section reads a length-prefixed section written between BeginSection
// and EndSection and returns a decoder over exactly its bytes (aliasing
// the buffer). After an error the returned decoder carries it.
func (d *Decoder) Section() *Decoder {
	n := d.Uint64()
	if d.err == nil && n > uint64(d.Remaining()) {
		d.err = fmt.Errorf("%w: section of length %d", ErrShortBuffer, n)
	}
	if d.err != nil {
		return &Decoder{err: d.err}
	}
	return NewDecoder(d.Raw(int(n)))
}

// StringV reads a uvarint length-prefixed string. The first call
// materialises one immutable copy of the whole buffer and every string
// is sliced out of it, so decoding a frame full of string payloads
// costs one allocation total instead of one per string. The copy also
// makes the results safe to retain past a reused read buffer.
func (d *Decoder) StringV() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n == 0 {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.err = fmt.Errorf("%w: string of length %d", ErrShortBuffer, n)
		return ""
	}
	if d.view == "" {
		d.view = string(d.buf)
	}
	s := d.view[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}

// Key reads a partitioning key.
func (d *Decoder) Key() Key { return Key(d.Uint64()) }
