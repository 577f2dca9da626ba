package scenariofile

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseRoundTrip drives arbitrary bytes through the strict decoder
// and asserts its two invariants: rejected inputs are rejected cleanly
// (an error, never a panic), and every accepted document survives the
// encode/Parse round trip with the identical value — the property that
// makes the canonical encoding safe to re-load.
func FuzzParseRoundTrip(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "*.json"))
	for _, path := range paths {
		if data, err := os.ReadFile(path); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte(`{"schedule": {"shape": "constant", "base_qps": 1e5, "total_ms": 50}}`))
	f.Add([]byte(`{"schedule": {"phases": [{"duration_ms": 1, "start_qps": -1, "end_qps": 1e999}]}}`))
	f.Add([]byte(`{"schedule": {"shape": "x"}, "faults": {"nodes": [{"node": -1, "kind": "crash"}]}}`))
	f.Add([]byte(`{"schedule": {"shape": "x"}} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := Parse(data)
		if err != nil {
			return // rejected cleanly
		}
		enc, err := encode(parsed)
		if err != nil {
			t.Fatalf("accepted document failed to encode: %v", err)
		}
		again, err := Parse(enc)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(parsed, again) {
			t.Fatalf("round trip drifted:\n was %+v\n now %+v", parsed, again)
		}
	})
}
