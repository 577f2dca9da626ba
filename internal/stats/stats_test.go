package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestStreamMoments(t *testing.T) {
	var s Stream
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d", s.Count())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	if math.Abs(s.StdDev()-2.138089935299395) > 1e-9 {
		t.Fatalf("stddev = %v", s.StdDev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestStreamEmpty(t *testing.T) {
	var s Stream
	if s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("empty stream moments not zero")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 10000; i++ {
		h.Add(float64(i))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 5000}, {0.90, 9000}, {0.99, 9900}, {0.999, 9990},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want)/tc.want > 0.02 {
			t.Fatalf("q%.3f = %v, want ~%v", tc.q, got, tc.want)
		}
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 10000 {
		t.Fatalf("extreme quantiles: %v, %v", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistogramMeanExact(t *testing.T) {
	h := NewHistogram()
	vals := []float64{0.5, 1.5, 130, 42000, 1e6}
	sum := 0.0
	for _, v := range vals {
		h.Add(v)
		sum += v
	}
	if math.Abs(h.Mean()-sum/5) > 1e-9 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Max() != 1e6 || h.Min() != 0.5 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Add(-5)
	if h.Min() != 0 {
		t.Fatalf("negative sample not clamped: min=%v", h.Min())
	}
}

// Property: quantile is monotone in q and bounded by [min, max].
func TestPropertyHistogramMonotone(t *testing.T) {
	r := xrand.New(99)
	f := func(n uint8) bool {
		h := NewHistogram()
		for i := 0; i < int(n)+2; i++ {
			h.Add(r.Exp(100))
		}
		prev := -1.0
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return h.Quantile(1) <= h.Max()+1e-9 && h.Quantile(0) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram relative error stays within ~1% for positive values.
func TestPropertyHistogramRelativeError(t *testing.T) {
	h := NewHistogram()
	r := xrand.New(7)
	for i := 0; i < 1000; i++ {
		v := r.Exp(500) + 1
		h2 := NewHistogram()
		h2.Add(v)
		got := h2.Quantile(0.5)
		if math.Abs(got-v)/v > 0.01 {
			t.Fatalf("relative error too large: v=%v got=%v", v, got)
		}
	}
	_ = h
}

func TestResidencyAccounting(t *testing.T) {
	r := NewResidency([]string{"C0", "C1", "C6"}, 0, 0)
	r.Switch(1, 100) // C0 for 100
	r.Switch(2, 300) // C1 for 200
	r.Switch(0, 600) // C6 for 300
	r.Close(1000)    // C0 for 400
	if r.TimeIn(0) != 500 || r.TimeIn(1) != 200 || r.TimeIn(2) != 300 {
		t.Fatalf("times = %d/%d/%d", r.TimeIn(0), r.TimeIn(1), r.TimeIn(2))
	}
	if r.Total() != 1000 {
		t.Fatalf("total = %d", r.Total())
	}
	f := r.Fractions()
	if math.Abs(f[0]-0.5) > 1e-12 || math.Abs(f[1]-0.2) > 1e-12 || math.Abs(f[2]-0.3) > 1e-12 {
		t.Fatalf("fractions = %v", f)
	}
	if r.Transitions(1) != 1 || r.Transitions(2) != 1 || r.Transitions(0) != 1 {
		t.Fatal("transition counts wrong")
	}
}

func TestResidencySelfSwitchNoop(t *testing.T) {
	r := NewResidency([]string{"a", "b"}, 0, 0)
	r.Switch(0, 50)
	if r.Transitions(0) != 0 {
		t.Fatal("self switch counted as transition")
	}
	r.Close(100)
	if r.TimeIn(0) != 100 {
		t.Fatalf("time = %d", r.TimeIn(0))
	}
}

func TestResidencyBackwardsPanics(t *testing.T) {
	r := NewResidency([]string{"a", "b"}, 0, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards switch did not panic")
		}
	}()
	r.Switch(1, 50)
}

// Property: fractions always sum to ~1 after any switch sequence.
func TestPropertyResidencyFractionsSum(t *testing.T) {
	f := func(steps []uint8) bool {
		r := NewResidency([]string{"s0", "s1", "s2", "s3"}, 0, 0)
		now := int64(0)
		for _, s := range steps {
			now += int64(s%100) + 1
			r.Switch(int(s)%4, now)
		}
		r.Close(now + 10)
		sum := 0.0
		for _, v := range r.Fractions() {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyMeter(t *testing.T) {
	m := NewEnergyMeter(0, 4) // 4 W
	m.SetPower(1e9, 1)        // after 1 s switch to 1 W
	m.SetPower(3e9, 0.1)      // after 2 more s switch to 0.1 W
	e := m.Energy(4e9)
	want := 4.0 + 2*1 + 1*0.1
	if math.Abs(e-want) > 1e-9 {
		t.Fatalf("energy = %v, want %v", e, want)
	}
	if ap := m.AveragePower(4e9); math.Abs(ap-want/4) > 1e-9 {
		t.Fatalf("avg power = %v", ap)
	}
}

func TestEnergyMeterBackwardsPanics(t *testing.T) {
	m := NewEnergyMeter(100, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards energy time did not panic")
		}
	}()
	m.SetPower(50, 2)
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Percentile(xs, 0.5) != 3 {
		t.Fatalf("median = %v", Percentile(xs, 0.5))
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 1) != 5 {
		t.Fatal("extremes wrong")
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile not 0")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentile mutated input")
	}
}

// TestHistogramReset pins that a reset histogram records exactly like a
// fresh one (same buckets, same quantiles) without reallocating buckets.
func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Add(float64(i) * 1.7)
	}
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Fatalf("reset histogram not empty: n=%d mean=%v max=%v min=%v",
			h.Count(), h.Mean(), h.Max(), h.Min())
	}
	fresh := NewHistogram()
	for i := 0; i < 500; i++ {
		v := float64(i*i) / 3
		h.Add(v)
		fresh.Add(v)
	}
	hq := h.Quantiles(0.5, 0.95, 0.99)
	fq := fresh.Quantiles(0.5, 0.95, 0.99)
	for i := range hq {
		if hq[i] != fq[i] {
			t.Errorf("quantile %d after reset: %v, fresh %v", i, hq[i], fq[i])
		}
	}
	if h.Mean() != fresh.Mean() || h.Max() != fresh.Max() || h.Min() != fresh.Min() {
		t.Error("reset histogram moments diverge from fresh histogram")
	}
	// Re-recording into already-grown buckets must not allocate.
	h.Reset()
	if avg := testing.AllocsPerRun(100, func() { h.Add(123.4) }); avg != 0 {
		t.Errorf("Add after Reset allocates %v per op", avg)
	}
}

// TestEnergyMeterReset pins that Reset restarts integration exactly like
// a fresh meter.
func TestEnergyMeterReset(t *testing.T) {
	m := NewEnergyMeter(0, 10)
	m.SetPower(1e9, 20)
	if m.Energy(2e9) != 30 {
		t.Fatalf("pre-reset energy = %v, want 30", m.Energy(2e9))
	}
	m.Reset(5e9, 4)
	if got := m.Energy(6e9); got != 4 {
		t.Errorf("post-reset energy = %v, want 4", got)
	}
	if got := m.AveragePower(7e9); got != 4 {
		t.Errorf("post-reset average power = %v, want 4", got)
	}
}
