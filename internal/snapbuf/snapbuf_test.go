package snapbuf

import (
	"bytes"
	"testing"
)

// TestAppendMatchesStr pins that Append writes exactly the wire form of
// Str, so a payload built in place decodes with Decoder.Str.
func TestAppendMatchesStr(t *testing.T) {
	for _, s := range []string{"", "x", "memcached|ref=2.2e+09"} {
		var want, got Encoder
		want.Str(s)
		got.Append(func(b []byte) []byte { return append(b, s...) })
		if !bytes.Equal(got.Buf, want.Buf) {
			t.Fatalf("Append(%q) = %x, want %x", s, got.Buf, want.Buf)
		}
		if d := NewDecoder(got.Buf); d.Str() != s || d.Close() != nil {
			t.Fatalf("Append(%q) did not decode back", s)
		}
	}
}
