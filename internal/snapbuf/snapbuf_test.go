package snapbuf

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
)

// TestBytesMatchesStr pins that Bytes writes exactly the wire form of
// Str, so text built in a byte slice decodes with Decoder.Str.
func TestBytesMatchesStr(t *testing.T) {
	for _, s := range []string{"", "x", "memcached|ref=2.2e+09"} {
		var want, got Encoder
		want.Str(s)
		got.Bytes([]byte(s))
		if !bytes.Equal(got.Buf, want.Buf) {
			t.Fatalf("Bytes(%q) = %x, want %x", s, got.Buf, want.Buf)
		}
		if d := NewDecoder(got.Buf); d.Str() != s || d.Close() != nil {
			t.Fatalf("Bytes(%q) did not decode back", s)
		}
	}
}

// TestRoundTripEveryField seals one document holding each field kind
// and opens it back: every value decodes bit for bit, floats included,
// and the decoder ends exactly at the trailer.
func TestRoundTripEveryField(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef)
	words := []uint64{0, 7, 0, 0, math.MaxUint64, 0, 0, 0, 1, 0}
	var e Encoder
	e.Grow(128)
	e.U8(0xa5)
	e.U64(math.MaxUint64)
	e.I64(-42)
	e.F64(negZero)
	e.F64(nan)
	e.Bool(true)
	e.Bool(false)
	e.Str("C6A")
	e.Bytes([]byte{1, 2, 3})
	e.Words(words)
	e.I64(2) // a count of two one-byte elements
	e.U8(9)
	e.U8(8)
	e.Seal()

	d, err := Open(e.Buf)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.U8(); v != 0xa5 {
		t.Errorf("U8 = %#x", v)
	}
	if v := d.U64(); v != math.MaxUint64 {
		t.Errorf("U64 = %d", v)
	}
	if v := d.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.F64(); math.Float64bits(v) != math.Float64bits(negZero) {
		t.Errorf("F64 lost the sign of zero: %v", v)
	}
	if v := d.F64(); math.Float64bits(v) != math.Float64bits(nan) {
		t.Errorf("F64 lost the NaN payload: %#x", math.Float64bits(v))
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool pair did not decode as true, false")
	}
	if v := d.Str(); v != "C6A" {
		t.Errorf("Str = %q", v)
	}
	if v := d.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	got := make([]uint64, len(words))
	d.Words(got)
	if !slices.Equal(got, words) {
		t.Errorf("Words = %v, want %v", got, words)
	}
	if n := d.Count(1); n != 2 {
		t.Errorf("Count = %d", n)
	}
	d.U8()
	d.U8()
	if d.Remaining() != 0 || d.Err() != nil {
		t.Errorf("%d bytes left, err %v", d.Remaining(), d.Err())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsDamage pins the trailer: a payload too short to carry
// one, or with any byte flipped, is refused before a field is read.
func TestOpenRejectsDamage(t *testing.T) {
	var e Encoder
	e.Str("fleet")
	e.F64(1.5)
	e.Seal()
	if _, err := Open(e.Buf[:crcLen-1]); err == nil {
		t.Error("a payload shorter than the trailer opened")
	}
	for i := range e.Buf {
		bad := slices.Clone(e.Buf)
		bad[i] ^= 0x10
		if _, err := Open(bad); err == nil {
			t.Errorf("flipping byte %d went undetected", i)
		}
	}
}

// TestTruncationIsSticky cuts a document at every offset: each read past
// the cut yields the zero value, the first error sticks, and Close
// reports it.
func TestTruncationIsSticky(t *testing.T) {
	var e Encoder
	e.U8(1)
	e.U64(2)
	e.Bool(true)
	e.Str("ab")
	e.Bytes([]byte("cd"))
	e.Words([]uint64{3, 0, 4})
	for cut := 0; cut < len(e.Buf); cut++ {
		d := NewDecoder(e.Buf[:cut])
		d.U8()
		d.U64()
		d.Bool()
		d.Str()
		d.Bytes()
		d.Words(make([]uint64, 3))
		first := d.Err()
		if first == nil {
			t.Fatalf("cut at %d: no error", cut)
		}
		if d.U8() != 0 || d.F64() != 0 || d.Str() != "" || d.Bytes() != nil || d.Count(1) != 0 {
			t.Fatalf("cut at %d: a read after the error returned data", cut)
		}
		if d.Err() != first || d.Close() != first {
			t.Fatalf("cut at %d: the first error did not stick", cut)
		}
	}
}

// TestDecoderRejectsCorruptFields pins the semantic checks beyond
// length: counts and lengths the rest of the document cannot hold, a
// boolean other than 0/1, non-canonical word blocks and trailing bytes.
func TestDecoderRejectsCorruptFields(t *testing.T) {
	enc := func(fill func(e *Encoder)) []byte {
		var e Encoder
		fill(&e)
		return e.Buf
	}
	cases := []struct {
		name string
		data []byte
		read func(d *Decoder)
	}{
		{"negative count", enc(func(e *Encoder) { e.I64(-1) }), func(d *Decoder) { d.Count(1) }},
		{"count past the payload", enc(func(e *Encoder) { e.I64(3); e.U64(0) }), func(d *Decoder) { d.Count(4) }},
		{"count of zero-byte elements", enc(func(e *Encoder) { e.I64(2); e.U8(0) }), func(d *Decoder) { d.Count(0) }},
		{"negative string length", enc(func(e *Encoder) { e.I64(-1) }), func(d *Decoder) { d.Str() }},
		{"string past the payload", enc(func(e *Encoder) { e.I64(5); e.U8('x') }), func(d *Decoder) { d.Str() }},
		{"negative bytes length", enc(func(e *Encoder) { e.I64(-3) }), func(d *Decoder) { d.Bytes() }},
		{"bytes past the payload", enc(func(e *Encoder) { e.I64(9) }), func(d *Decoder) { d.Bytes() }},
		{"boolean 2", []byte{2}, func(d *Decoder) { d.Bool() }},
		{"word bitmap past the block", []byte{0x08}, func(d *Decoder) { d.Words(make([]uint64, 3)) }},
		{"zero word marked nonzero", enc(func(e *Encoder) { e.U8(1); e.U64(0) }), func(d *Decoder) { d.Words(make([]uint64, 1)) }},
		{"trailing bytes", []byte{0, 0}, func(d *Decoder) { d.U8() }},
	}
	for _, tc := range cases {
		d := NewDecoder(tc.data)
		tc.read(d)
		if d.Close() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestFailKeepsTheFirstError pins Fail: a caller's semantic error stops
// the decode like a structural one, and never overwrites an earlier one.
func TestFailKeepsTheFirstError(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	d := NewDecoder([]byte{1})
	d.Fail(first)
	d.Fail(second)
	if d.U8() != 0 || d.Err() != first || d.Close() != first {
		t.Fatalf("err = %v, want the first failure", d.Err())
	}
}
