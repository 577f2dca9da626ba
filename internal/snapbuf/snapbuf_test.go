package snapbuf

import (
	"bytes"
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
