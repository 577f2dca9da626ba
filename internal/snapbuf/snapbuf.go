// Package snapbuf is the tiny binary codec shared by the snapshot
// layers (server instances, cluster fleets): fixed-width big-endian
// integers, bit-exact floats, and length-prefixed strings, with a
// strict decoder that turns any overrun into a sticky error instead of
// a panic or a silently zeroed field. A document is sealed with a
// CRC-32C trailer (Seal) and opened only after the trailer checks out
// (Open), so a damaged payload is rejected before any field is read.
package snapbuf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// crcLen is the length of the CRC-32C trailer Seal appends.
const crcLen = 4

// Encoder appends snapshot fields to Buf.
type Encoder struct{ Buf []byte }

// Grow makes room for n more bytes, so a block whose size is known
// up front is written without repeated reallocation.
func (e *Encoder) Grow(n int) { e.Buf = slices.Grow(e.Buf, n) }

func (e *Encoder) U8(v uint8)   { e.Buf = append(e.Buf, v) }
func (e *Encoder) U64(v uint64) { e.Buf = binary.BigEndian.AppendUint64(e.Buf, v) }
func (e *Encoder) I64(v int64)  { e.U64(uint64(v)) }

// F64 writes the exact bit pattern — snapshots must round-trip every
// float bit-for-bit, including negative zero and NaN payloads.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

func (e *Encoder) Str(s string) {
	e.I64(int64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// Bytes writes a length-prefixed byte payload (a nested document, or
// text built in a byte slice): the wire form of Str.
func (e *Encoder) Bytes(b []byte) {
	e.I64(int64(len(b)))
	e.Buf = append(e.Buf, b...)
}

// Words writes a block of 64-bit words (integers, or float bit
// patterns) compactly: a bitmap of the nonzero words, a byte per eight,
// then those words. A measurement with many empty fields, such as an
// idle node's latencies or the C-states a platform lacks, costs a bit
// per empty field instead of eight bytes: it halves a fleet
// checkpoint, whose size a served session pays on every file write and
// transfer. The reader must know the block's length.
func (e *Encoder) Words(ws []uint64) {
	start, n := len(e.Buf), (len(ws)+7)/8
	buf := slices.Grow(e.Buf, n+8*len(ws))[:start+n+8*len(ws)]
	masks := buf[start : start+n]
	clear(masks)
	off := start + n
	for i, w := range ws {
		if w != 0 {
			masks[i/8] |= 1 << (i % 8)
			binary.BigEndian.PutUint64(buf[off:], w)
			off += 8
		}
	}
	e.Buf = buf[:off]
}

// Seal appends the CRC-32C of everything encoded so far, closing the
// document: nothing may be appended after it.
func (e *Encoder) Seal() {
	e.Buf = binary.BigEndian.AppendUint32(e.Buf, crc32.Checksum(e.Buf, castagnoli()))
}

// castagnoli returns the CRC-32C table. hash/crc32 builds it once, on
// first use, so a process that never seals or opens a document, which
// is every batch run, skips the ~0.2 ms it takes.
func castagnoli() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) }

// Open checks a sealed document's CRC-32C trailer and returns a decoder
// over the body before it. A payload too short to carry a trailer, or
// whose trailer does not match, is an error and nothing is decoded.
func Open(data []byte) (*Decoder, error) {
	if len(data) < crcLen {
		return nil, fmt.Errorf("truncated snapshot (%d bytes, no checksum)", len(data))
	}
	body := data[:len(data)-crcLen]
	if crc32.Checksum(body, castagnoli()) != binary.BigEndian.Uint32(data[len(body):]) {
		return nil, errors.New("corrupt snapshot: checksum mismatch")
	}
	return NewDecoder(body), nil
}

// Decoder is the strict mirror: any read past the payload sets the
// sticky error (checked via Err), so truncated documents are rejected
// no matter where the cut landed.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder decodes from data.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Err returns the first decode error, nil if none so far.
func (d *Decoder) Err() error { return d.err }

// Close verifies the document was consumed exactly: no decode error and
// no trailing bytes.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%d trailing bytes after the snapshot document", len(d.buf)-d.off)
	}
	return nil
}

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Count reads an element count and checks it against the undecoded
// bytes: each element encodes to at least minBytes (at least 1), so a
// count the rest of the document cannot hold is corrupt. Callers size
// allocations by the returned count, which is therefore bounded by the
// payload length. A failed check sets the sticky error and returns 0.
func (d *Decoder) Count(minBytes int) int {
	n := d.I64()
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n < 0 || n > int64(d.Remaining()/minBytes) {
		d.err = fmt.Errorf("corrupt snapshot: count %d at offset %d exceeds the %d bytes left", n, d.off-8, d.Remaining())
		return 0
	}
	return int(n)
}

// Fail records err as the decode error unless one is already set, so a
// caller's semantic check (an out-of-range index, an inconsistent
// flag) stops the decode like a structural one.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated snapshot (offset %d of %d)", d.off, len(d.buf))
	}
}

func (d *Decoder) U8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *Decoder) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *Decoder) I64() int64   { return int64(d.U64()) }
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Words reads a block Encoder.Words wrote into ws, whose length is the
// block's. A block has one encoding: a bitmap bit past the end of ws,
// or a word marked nonzero that is zero, is corrupt.
func (d *Decoder) Words(ws []uint64) {
	n := (len(ws) + 7) / 8
	if d.err != nil || n > d.Remaining() {
		d.fail()
		return
	}
	masks := d.buf[d.off : d.off+n]
	d.off += n
	if tail := len(ws) % 8; tail != 0 && masks[n-1]>>tail != 0 {
		d.err = fmt.Errorf("corrupt snapshot: word bitmap marks past the block at offset %d", d.off-1)
		return
	}
	for i := range ws {
		ws[i] = 0
		if masks[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		if ws[i] = d.U64(); ws[i] == 0 && d.err == nil {
			d.err = fmt.Errorf("corrupt snapshot: zero word marked nonzero at offset %d", d.off-8)
		}
	}
}

func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = fmt.Errorf("corrupt snapshot: invalid boolean at offset %d", d.off-1)
		}
		return false
	}
}

func (d *Decoder) Str() string {
	n := d.I64()
	if d.err != nil {
		return ""
	}
	if n < 0 || n > int64(d.Remaining()) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Bytes reads a length-prefixed byte payload written by Encoder.Bytes.
func (d *Decoder) Bytes() []byte {
	n := d.I64()
	if d.err != nil {
		return nil
	}
	if n < 0 || n > int64(d.Remaining()) {
		d.fail()
		return nil
	}
	b := append([]byte(nil), d.buf[d.off:d.off+int(n)]...)
	d.off += int(n)
	return b
}
