package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {1000, 99}, {999, 95}, {200, 95}, {100, 90}, {75, 80}, {50, 80}, {49, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns, extrapolation for tiny samples included.
func TestTailsMeasured(t *testing.T) {
	session := twinSession{steps: make([]float64, 240), whatifs: make([]float64, 15)}
	for n := 1; n <= 5; n++ {
		sessions := make([]twinSession, n)
		for i := range sessions {
			sessions[i] = session
		}
		// 1000 steps support a p99 and 50 what-ifs a p80 at five sessions.
		if got, want := tailsMeasured(sessions), n >= 5; got != want {
			t.Errorf("%d sessions: tailsMeasured = %v, want %v", n, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5.5, 1.25, 9, 4, 4, 7.75, 2}, 2, 7.75},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %g, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g, want 2.5", m)
	}
	for p, want := range map[float64]float64{50: 3, 80: 4, 99: 5, 100: 5, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	// Rounds in two clusters: the mean follows the slow share, the median
	// sits in the larger cluster.
	two := summarizeMean("s", []float64{2, 2, 2, 3, 3})
	if two.Value != 2.4 || two.N != 5 || two.Q1 != 2 || two.Q3 != 3 {
		t.Errorf("summarizeMean = %+v, want value 2.4, quartiles [2, 3] over 5 samples", two)
	}
}

func TestPooledPercentile(t *testing.T) {
	s := pooled("ms", 50, [][]float64{{1, 2, 3}, {10, 20, 30}})
	if s.Value != 3 || s.N != 6 {
		t.Errorf("pooled = %+v, want value 3 over 6 samples", s)
	}
	// Resampling two very different sessions spreads the median widely.
	if s.Q1 > 3 || s.Q3 < 10 {
		t.Errorf("pooled quartiles [%g, %g], want them to span both sessions", s.Q1, s.Q3)
	}
	if again := pooled("ms", 50, [][]float64{{1, 2, 3}, {10, 20, 30}}); again.Q1 != s.Q1 || again.Q3 != s.Q3 {
		t.Error("bootstrap quartiles differ between calls")
	}
	same := pooled("ms", 99, [][]float64{{5, 5}, {5, 5}, {5, 5}})
	if same.Q1 != 5 || same.Q3 != 5 {
		t.Errorf("identical sessions: quartiles [%g, %g], want [5, 5]", same.Q1, same.Q3)
	}
}

func TestPeakRSS(t *testing.T) {
	if mb, err := peakRSSMB("self"); err != nil || mb <= 0 {
		t.Errorf("peakRSSMB(self) = %g, %v; want a positive size", mb, err)
	}
	if _, err := peakRSSMB("no-such-pid"); err == nil {
		t.Error("peakRSSMB of a missing process: no error")
	}
}

func TestVerdict(t *testing.T) {
	run, _ := metricByName("run_s")
	errRate, _ := metricByName("error_rate")
	hits, _ := metricByName("runner.memo_hits")
	tight := func(v float64) stat { return summarize("s", []float64{v * 0.99, v, v * 1.01}) }
	for _, c := range []struct {
		name string
		m    metricDef
		a, b stat
		want string
	}{
		{"unchanged", run, tight(1), tight(1), "ok"},
		{"within bound", run, tight(1), tight(1.1), "ok"},
		{"worse than bound", run, tight(1), tight(1.4), "regressed"},
		{"faster", run, tight(1), tight(0.5), "ok"},
		{"spread wider than bound", run, summarize("s", []float64{0.5, 1, 1.5}), tight(1.4), "unresolved"},
		{"wide but every sample better", run, summarize("s", []float64{2, 3, 4}), tight(1), "ok"},
		{"error rate rises", errRate, stat{Value: 0}, stat{Value: 0.01}, "regressed"},
		{"error rate stays 0", errRate, stat{Value: 0}, stat{Value: 0}, "ok"},
		{"layer metric", hits, stat{Value: 100}, stat{Value: 1}, "info"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestDigestVerdict(t *testing.T) {
	for _, c := range []struct {
		name    string
		digests []string
		want    string
		pinned  string
		atSeed  bool
		ok      bool
	}{
		{"pinned match", []string{"a", "a"}, "", "a", true, true},
		{"pinned mismatch", []string{"b", "b"}, "", "a", true, false},
		{"rounds disagree", []string{"a", "b"}, "", "a", true, false},
		{"held-out seed checks agreement only", []string{"b", "b"}, "", "a", false, true},
		{"held-out seed rounds disagree", []string{"b", "c"}, "", "a", false, false},
		{"reference mismatch", []string{"b", "b"}, "c", "", false, false},
		{"reference and pin match", []string{"a"}, "a", "a", true, true},
		{"no rounds", nil, "", "a", true, false},
	} {
		if _, status, ok := digestVerdict(c.digests, c.want, c.pinned, c.atSeed); ok != c.ok {
			t.Errorf("%s: ok = %v (%s), want %v", c.name, ok, status, c.ok)
		}
	}
}

func TestCompareRefusesOtherEnvironment(t *testing.T) {
	env := envStamp{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", CPUModel: "X", NumCPU: 2, GOMAXPROCS: 2, Commit: "a"}
	a := resultFile{Env: env}
	b := resultFile{Env: env}
	b.Env.Commit, b.Env.Dirty, b.Env.TimeUTC = "b", true, "later"
	if _, err := compare(a, b, io.Discard); err != nil {
		t.Errorf("same machine, other commit: %v", err)
	}
	b.Env.GOMAXPROCS = 1
	if _, err := compare(a, b, io.Discard); err == nil {
		t.Error("compared results taken at different GOMAXPROCS")
	}
}

func TestCompareReportsRegression(t *testing.T) {
	wr := func(v float64) workloadResult {
		return workloadResult{Name: wFleet128, Metrics: map[string]stat{"run_s": summarize("s", []float64{v, v, v})}}
	}
	a := resultFile{Workloads: []workloadResult{wr(1)}}
	b := resultFile{Workloads: []workloadResult{wr(2)}}
	var out strings.Builder
	regressed, err := compare(a, b, &out)
	if err != nil || !regressed || !strings.Contains(out.String(), "regressed") {
		t.Errorf("compare = %v, %v:\n%s", regressed, err, out.String())
	}
}

// BENCHMARK.json must list exactly the Listed metrics and the
// workloads this program defines.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound,omitempty"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metric
	for _, m := range metricDefs {
		if !m.Listed {
			continue
		}
		if m.Only != "" || m.Better == "" {
			t.Errorf("%s is listed but not reported for every workload", m.Name)
		}
		if m.Layer {
			layer = append(layer, metric{m.Name, m.Unit, m.Better, 0})
		} else {
			e2e = append(e2e, metric{m.Name, m.Unit, m.Better, m.Bound})
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, e2e) {
		t.Errorf("end_to_end\n%+v\nwant\n%+v", spec.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(spec.PerLayer, layer) {
		t.Errorf("per_layer\n%+v\nwant\n%+v", spec.PerLayer, layer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, want %v", names, workloadNames())
	}
}

func TestBenchmarkLine(t *testing.T) {
	wr := workloadResult{Correct: true, Attempted: 3, Metrics: map[string]stat{
		"setup_s": {Value: 0.002}, "run_s": {Value: 1.9}, "peak_rss_mb": {Value: 60},
		"error_rate": {Value: 0}, "proc.cpu_s": {Value: 2},
	}}
	line := benchmarkLine(wr, false)
	metrics := line["metrics"].(map[string]any)
	if len(metrics) != 3 || metrics["proc.cpu_s"] != nil || metrics["error_rate"] != nil {
		t.Errorf("untraced metrics %v, want setup_s, run_s, peak_rss_mb", metrics)
	}
	if line["correct"] != true || line["attempted"] != 3 || line["failed"] != 0 {
		t.Errorf("benchmark line %v", line)
	}
	if traced := benchmarkLine(wr, true)["metrics"].(map[string]any); len(traced) != 1 || traced["proc.cpu_s"] == nil {
		t.Errorf("traced metrics %v, want proc.cpu_s only", traced)
	}
}
