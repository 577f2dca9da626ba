package power

import (
	"math"
	"testing"

	"repro/internal/cstate"
)

func vec() Vector {
	v := VectorFromCatalog(cstate.Skylake())
	return v
}

func TestAvgPowerBaseline(t *testing.T) {
	var r Residencies
	r[cstate.C0] = 0.2
	r[cstate.C1] = 0.8
	got := AvgPower(r, vec())
	want := 0.2*4.0 + 0.8*1.44
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("AvgPower = %v, want %v", got, want)
	}
}

func TestResidencyValidate(t *testing.T) {
	var r Residencies
	r[cstate.C0] = 0.5
	r[cstate.C1] = 0.5
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	r[cstate.C1] = 0.6
	if err := r.Validate(); err == nil {
		t.Fatal("sum 1.1 passed validation")
	}
	r[cstate.C1] = -0.1
	if err := r.Validate(); err == nil {
		t.Fatal("negative residency passed validation")
	}
}

// Sec. 2: the motivation numbers — 23%, 41%, 55% for search@50%,
// search@25%, and key-value@20% load.
func TestMotivationSavingsMatchesPaper(t *testing.T) {
	p := vec()
	cases := []struct {
		name          string
		rc0, rc1, rc6 float64
		want          float64
		tol           float64
	}{
		{"search@50%", 0.50, 0.45, 0.05, 23, 1.0},
		{"search@25%", 0.25, 0.55, 0.20, 41, 1.5},
		{"kv@20%", 0.20, 0.80, 0.00, 55, 1.5},
	}
	for _, tc := range cases {
		got := MotivationSavings(tc.rc0, tc.rc1, tc.rc6, p)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("%s: savings = %.1f%%, want ~%.0f%%", tc.name, got, tc.want)
		}
	}
}

func TestMotivationSavingsZeroBaseline(t *testing.T) {
	if MotivationSavings(0, 0, 0, vec()) != 0 {
		t.Fatal("zero baseline must give zero savings")
	}
}

func TestTurboSavings(t *testing.T) {
	p := vec()
	// A core 100% in C1: savings = (1.44-0.30)/1.44 = 79%.
	got := TurboSavings(1.0, 0, 1.44, p)
	if math.Abs(got-79.2) > 0.5 {
		t.Fatalf("turbo savings = %.1f%%, want ~79%%", got)
	}
	if TurboSavings(1, 0, 0, p) != 0 {
		t.Fatal("zero baseline must give zero")
	}
}

func TestValidationAccuracy(t *testing.T) {
	results := Validate(cstate.Skylake(), 2022)
	if len(results) != 4 {
		t.Fatalf("got %d workloads", len(results))
	}
	names := map[string]bool{}
	for _, r := range results {
		names[r.Workload] = true
		// Paper: 94.4% - 96.1%. Allow a looser band for the synthetic
		// measurement substitution, but demand realistic accuracy.
		if r.AccuracyPercent < 90 || r.AccuracyPercent > 99.9 {
			t.Errorf("%s accuracy = %.1f%%, want ~95%%", r.Workload, r.AccuracyPercent)
		}
		if len(r.Samples) == 0 {
			t.Errorf("%s has no samples", r.Workload)
		}
		for _, s := range r.Samples {
			if err := s.Residencies.Validate(); err != nil {
				t.Errorf("%s u=%v: %v", r.Workload, s.Utilization, err)
			}
			if s.EstimatedW <= 0 || s.MeasuredW <= 0 {
				t.Errorf("%s u=%v: nonpositive power", r.Workload, s.Utilization)
			}
		}
	}
	for _, want := range []string{"SPECpower", "Nginx", "Spark", "Hive"} {
		if !names[want] {
			t.Errorf("missing workload %s", want)
		}
	}
}

func TestValidationDeterministic(t *testing.T) {
	a := Validate(cstate.Skylake(), 7)
	b := Validate(cstate.Skylake(), 7)
	for i := range a {
		if a[i].AccuracyPercent != b[i].AccuracyPercent {
			t.Fatal("validation not deterministic for same seed")
		}
	}
}
