package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBenchOutput(t *testing.T) {
	path := writeBench(t, "new.txt", `
goos: linux
BenchmarkRunScenarioWarm-8   	      10	 123456789 ns/op	 1000000 B/op	   20000 allocs/op
BenchmarkRunScenarioWarm-8   	      10	 123456791 ns/op	 1000002 B/op	   20002 allocs/op
BenchmarkRunScenario100K-8   	       1	3318566903 ns/op
PASS
`)
	runs, _, err := parse(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(runs["BenchmarkRunScenarioWarm"]); got != 2 {
		t.Fatalf("warm samples = %d, want 2", got)
	}
	if got := runs["BenchmarkRunScenario100K"]; len(got) != 1 || got[0].nsOp != 3318566903 || got[0].hasMem {
		t.Fatalf("100K sample = %+v, want one memless 3318566903 ns/op sample", got)
	}
	if !runs["BenchmarkRunScenarioWarm"][0].hasMem {
		t.Fatal("benchmem columns not parsed")
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v, want 2", got)
	}
	if got := medianOf([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got)
	}
}

// TestEmitPartialWithoutBaseline pins the satellite fix: a benchmark
// absent from the baseline (or with a zero base median) emits a partial
// record — ns_op/samples only, no base_ns_op, no speedup — instead of
// zero-valued comparison fields.
func TestEmitPartialWithoutBaseline(t *testing.T) {
	newRuns := map[string][]sample{
		"BenchmarkShared": {{nsOp: 100}, {nsOp: 110}},
		"BenchmarkNew":    {{nsOp: 50, bOp: 640, allocs: 7, hasMem: true}},
		"BenchmarkZeroed": {{nsOp: 80}},
	}
	baseRuns := map[string][]sample{
		"BenchmarkShared": {{nsOp: 210}},
		"BenchmarkZeroed": {{nsOp: 0}},
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := emit(path, stamp{}, newRuns, baseRuns); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Date       string                     `json:"date"`
		Benchmarks map[string]json.RawMessage `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var shared emitEntry
	if err := json.Unmarshal(doc.Benchmarks["BenchmarkShared"], &shared); err != nil {
		t.Fatal(err)
	}
	if shared.BaseNsOp == nil || *shared.BaseNsOp != 210 {
		t.Fatalf("shared base = %v, want 210", shared.BaseNsOp)
	}
	if shared.Speedup == nil || *shared.Speedup != 2 {
		t.Fatalf("shared speedup = %v, want 2 (210/105 median)", shared.Speedup)
	}
	for _, name := range []string{"BenchmarkNew", "BenchmarkZeroed"} {
		var m map[string]any
		if err := json.Unmarshal(doc.Benchmarks[name], &m); err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"base_ns_op", "speedup"} {
			if _, present := m[field]; present {
				t.Errorf("%s: %q emitted without a usable baseline", name, field)
			}
		}
	}
	var withMem emitEntry
	if err := json.Unmarshal(doc.Benchmarks["BenchmarkNew"], &withMem); err != nil {
		t.Fatal(err)
	}
	if withMem.AllocsOp == nil || *withMem.AllocsOp != 7 || withMem.BytesOp == nil || *withMem.BytesOp != 640 {
		t.Fatalf("benchmem medians not emitted: %+v", withMem)
	}
}

// TestParseBenchEnv pins the environment read from a bench file: the
// goos/goarch/cpu headers and GOMAXPROCS from the name suffix, where no
// suffix means 1 and disagreeing suffixes leave it unknown.
func TestParseBenchEnv(t *testing.T) {
	header := "goos: linux\ngoarch: amd64\npkg: repro/internal/sim\ncpu: Intel(R) Xeon(R) Processor\n"
	cases := []struct {
		name, body string
		want       benchEnv
	}{
		{"suffix", header + "BenchmarkA-8  10  100 ns/op\nBenchmarkB-8  10  200 ns/op\n",
			benchEnv{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor", Procs: 8}},
		{"no-suffix", header + "BenchmarkA  10  100 ns/op\n",
			benchEnv{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor", Procs: 1}},
		{"cpu-list", header + "BenchmarkA  10  100 ns/op\nBenchmarkA-2  10  60 ns/op\n",
			benchEnv{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor"}},
		{"no-header", "BenchmarkA-4  10  100 ns/op\n", benchEnv{Procs: 4}},
	}
	for _, tc := range cases {
		_, env, err := parse(writeBench(t, tc.name+".txt", tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if env != tc.want {
			t.Errorf("%s: env = %+v, want %+v", tc.name, env, tc.want)
		}
	}
}

// TestEmitStamp pins the stamp fields of an emitted snapshot.
func TestEmitStamp(t *testing.T) {
	st := stamp{
		benchEnv:  benchEnv{GOOS: "linux", GOARCH: "amd64", CPU: "Xeon", Procs: 2},
		GoVersion: "go1.24.0",
		Commit:    "abc123",
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := emit(path, st, map[string][]sample{"BenchmarkA": {{nsOp: 1}}}, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"goos": "linux", "goarch": "amd64", "cpu": "Xeon", "gomaxprocs": 2.0,
		"go_version": "go1.24.0", "commit": "abc123",
	}
	for k, v := range want {
		if doc[k] != v {
			t.Errorf("%s = %v, want %v", k, doc[k], v)
		}
	}
}

// TestEnvMismatchOmitsSpeedup pins that a baseline from another
// environment is dropped from the snapshot with a warning, and one from
// the same environment is kept.
func TestEnvMismatchOmitsSpeedup(t *testing.T) {
	env := benchEnv{GOOS: "linux", GOARCH: "amd64", CPU: "Xeon", Procs: 2}
	base := map[string][]sample{"BenchmarkA": {{nsOp: 200}}}
	var w bytes.Buffer
	if got := sameEnvBase(&w, base, env, env); got == nil || w.Len() != 0 {
		t.Fatalf("same environment: base %v, warning %q", got, w.String())
	}
	for _, other := range []benchEnv{
		{GOOS: "linux", GOARCH: "amd64", CPU: "EPYC", Procs: 2},
		{GOOS: "darwin", GOARCH: "arm64", CPU: "Xeon", Procs: 2},
		{GOOS: "linux", GOARCH: "amd64", CPU: "Xeon", Procs: 4},
	} {
		w.Reset()
		got := sameEnvBase(&w, base, other, env)
		if got != nil || !strings.Contains(w.String(), "warning") {
			t.Errorf("%+v vs %+v: base %v, warning %q", other, env, got, w.String())
		}
		path := filepath.Join(t.TempDir(), "BENCH_test.json")
		if err := emit(path, stamp{benchEnv: env}, map[string][]sample{"BenchmarkA": {{nsOp: 100}}}, got); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(raw), "speedup") || strings.Contains(string(raw), "base_ns_op") {
			t.Errorf("%+v vs %+v: snapshot compares environments:\n%s", other, env, raw)
		}
	}
}
