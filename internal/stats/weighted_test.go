package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestWeightedSeriesMatchesSortedSeries is the exactness contract the
// class-collapsed fleet collector relies on: a WeightedSeries answers
// every quantile bit-for-bit like a SortedSeries over the expanded
// multiset — and with unit weights, like a SortedSeries over the
// original series.
func TestWeightedSeriesMatchesSortedSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qs := []float64{-0.1, 0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1, 1.5}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		vals := make([]float64, n)
		weights := make([]uint64, n)
		var expanded []float64
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
			weights[i] = uint64(1 + rng.Intn(6))
			for k := uint64(0); k < weights[i]; k++ {
				expanded = append(expanded, vals[i])
			}
		}
		ws := NewWeightedSeries(vals, weights)
		ss := NewSortedSeries(expanded)
		for _, q := range qs {
			if got, want := ws.Percentile(q), ss.Percentile(q); got != want {
				t.Fatalf("trial %d q%g: weighted %v != expanded %v (vals %v weights %v)",
					trial, q, got, want, vals, weights)
			}
		}
		// Unit weights: interchangeable with SortedSeries on the raw series.
		unit := make([]uint64, n)
		for i := range unit {
			unit[i] = 1
		}
		uw := NewWeightedSeries(vals, unit)
		us := NewSortedSeries(vals)
		for _, q := range qs {
			if got, want := uw.Percentile(q), us.Percentile(q); got != want {
				t.Fatalf("trial %d q%g: unit-weighted %v != sorted %v", trial, q, got, want)
			}
		}
	}
}

// TestWeightedSeriesEdges pins empty input, zero-weight dropping, and
// the length-mismatch panic.
func TestWeightedSeriesEdges(t *testing.T) {
	if got := (WeightedSeries{}).Percentile(0.5); got != 0 {
		t.Errorf("empty series percentile = %v, want 0", got)
	}
	s := NewWeightedSeries([]float64{5, 1, 9}, []uint64{0, 3, 0})
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Percentile(q); got != 1 {
			t.Errorf("zero-weight samples leaked: q%g = %v, want 1", q, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	NewWeightedSeries([]float64{1}, nil)
}

// TestMeanCI95 pins the t-based interval math against hand-computed
// values and the degenerate small-sample cases.
func TestMeanCI95(t *testing.T) {
	mean, half := MeanCI95([]float64{1, 2, 3})
	if mean != 2 {
		t.Errorf("mean = %v, want 2", mean)
	}
	want := 4.303 * math.Sqrt(1.0/3.0) // s^2 = 1, n = 3, df = 2
	if math.Abs(half-want) > 1e-12 {
		t.Errorf("half-width = %v, want %v", half, want)
	}
	if m, h := MeanCI95([]float64{7}); m != 7 || h != 0 {
		t.Errorf("single sample CI = (%v, %v), want (7, 0)", m, h)
	}
	if m, h := MeanCI95(nil); m != 0 || h != 0 {
		t.Errorf("empty CI = (%v, %v), want zeros", m, h)
	}
}

// TestTCrit95 pins the table edges and the large-df fallback.
func TestTCrit95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{{0, 0}, {1, 12.706}, {2, 4.303}, {30, 2.042}, {31, 1.96}, {1000, 1.96}}
	for _, c := range cases {
		if got := TCrit95(c.df); got != c.want {
			t.Errorf("TCrit95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
}
