// Package snapbuf is the tiny binary codec shared by the snapshot
// layers (server instances, cluster fleets): fixed-width big-endian
// integers, bit-exact floats, and length-prefixed strings, with a
// strict decoder that turns any overrun into a sticky error instead of
// a panic or a silently zeroed field.
package snapbuf

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoder appends snapshot fields to Buf.
type Encoder struct{ Buf []byte }

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

// Len returns the total document length — a plausibility bound for
// decoded element counts.
func (d *Decoder) Len() int { return len(d.buf) }

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
	if n < 0 || d.off+int(n) > len(d.buf) {
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
	if n < 0 || d.off+int(n) > len(d.buf) {
		d.fail()
		return nil
	}
	b := append([]byte(nil), d.buf[d.off:d.off+int(n)]...)
	d.off += int(n)
	return b
}
