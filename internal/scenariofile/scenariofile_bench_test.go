package scenariofile

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkParseScenarioFile measures decoding and validating the
// checked-in scenario library from memory: one op parses every file.
func BenchmarkParseScenarioFile(b *testing.B) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		b.Fatalf("no scenario files under testdata/scenarios (%v)", err)
	}
	docs := make([][]byte, len(paths))
	for i, p := range paths {
		if docs[i], err = os.ReadFile(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, doc := range docs {
			if _, err := Parse(doc); err != nil {
				b.Fatal(err)
			}
		}
	}
}
