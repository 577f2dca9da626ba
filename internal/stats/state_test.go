package stats

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/snapbuf"
)

// TestQuantilesMatchQuantile pins Quantiles against the one-quantile
// scan bit for bit, out-of-range quantiles included, and its input
// contract: an unsorted list panics, an empty histogram answers zeros.
func TestQuantilesMatchQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := NewHistogram()
	for i := 0; i < 2000; i++ {
		h.Add(math.Exp(rng.Float64() * 14))
	}
	qs := []float64{-1, 0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1, 2}
	got := h.Quantiles(qs...)
	for i, q := range qs {
		if want := h.Quantile(q); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Errorf("q%g: Quantiles %v != Quantile %v", q, got[i], want)
		}
	}
	if z := NewHistogram().Quantiles(0.5, 0.99); z[0] != 0 || z[1] != 0 {
		t.Errorf("empty histogram quantiles = %v", z)
	}
	defer func() {
		if recover() == nil {
			t.Error("unsorted quantiles did not panic")
		}
	}()
	h.Quantiles(0.9, 0.5)
}

// encodeState runs one AppendState writer and returns its bytes.
func encodeState(appendState func(*snapbuf.Encoder)) []byte {
	var e snapbuf.Encoder
	appendState(&e)
	return e.Buf
}

// TestHistogramStateRoundTrip pins the snapshot codec and Clone: a
// decoded or cloned histogram answers exactly like the original, and a
// clone records independently of it.
func TestHistogramStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Add(rng.ExpFloat64() * 5e4)
	}
	d := snapbuf.NewDecoder(encodeState(h.AppendState))
	got := NewHistogram()
	got.Add(1) // decoding replaces, not merges
	got.DecodeState(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	c := h.Clone()
	qs := []float64{0, 0.5, 0.99, 1}
	for _, o := range []*Histogram{got, c} {
		if o.Count() != h.Count() || o.Mean() != h.Mean() || o.Min() != h.Min() || o.Max() != h.Max() ||
			!slices.Equal(o.Quantiles(qs...), h.Quantiles(qs...)) {
			t.Fatalf("copy answers differently: %v vs %v", o.Quantiles(qs...), h.Quantiles(qs...))
		}
	}
	c.Add(1e9)
	if h.Count() == c.Count() || h.Max() == c.Max() {
		t.Fatal("a sample added to the clone reached the original")
	}
}

// TestHistogramDecodeRejectsCorrupt pins the bucket checks: indices must
// increase and stay in range, counts must be nonzero and add up to the
// sample count.
func TestHistogramDecodeRejectsCorrupt(t *testing.T) {
	limit := int64(NewHistogram().bucketOf(maxStateSample))
	doc := func(n uint64, buckets ...[2]int64) []byte {
		var e snapbuf.Encoder
		e.I64(int64(len(buckets)))
		for _, b := range buckets {
			e.I64(b[0])
			e.U64(uint64(b[1]))
		}
		e.U64(n)
		e.F64(1)
		e.F64(1)
		e.F64(1)
		return e.Buf
	}
	cases := map[string][]byte{
		"index not increasing": doc(2, [2]int64{5, 1}, [2]int64{5, 1}),
		"index out of range":   doc(1, [2]int64{limit, 1}),
		"negative index":       doc(1, [2]int64{-1, 1}),
		"zero count":           doc(0, [2]int64{3, 0}),
		"count mismatch":       doc(3, [2]int64{3, 1}),
		"truncated":            doc(1, [2]int64{3, 1})[:20],
	}
	for name, data := range cases {
		h := NewHistogram()
		h.Add(7)
		d := snapbuf.NewDecoder(data)
		h.DecodeState(d)
		if d.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
		if h.Count() != 1 || h.Max() != 7 {
			t.Errorf("%s: a rejected document changed the histogram", name)
		}
	}
}

// TestResidencyStateRoundTrip pins the tracker's snapshot codec and
// Clone, and the checks DecodeState makes against the owner's clock.
func TestResidencyStateRoundTrip(t *testing.T) {
	labels := []string{"C0", "C1", "C6"}
	r := NewResidency(labels, 0, 100)
	r.Switch(1, 400)
	r.Switch(2, 450)
	r.Switch(0, 1000)
	data := encodeState(r.AppendState)

	got := NewResidency(labels, 0, 0)
	d := snapbuf.NewDecoder(data)
	got.DecodeState(d, 1000)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	c := r.Clone()
	for _, o := range []*Residency{got, c} {
		if !reflect.DeepEqual(o, r) || o.Current() != 0 {
			t.Fatalf("copy = %+v, want %+v", o, r)
		}
	}
	c.Switch(1, 2000)
	if r.Current() != 0 || r.Transitions(1) != 1 {
		t.Fatal("a switch on the clone reached the original")
	}

	d = snapbuf.NewDecoder(data)
	NewResidency(labels, 0, 0).DecodeState(d, 999)
	if d.Err() == nil {
		t.Error("marks past the clock were accepted")
	}
	var e snapbuf.Encoder
	for range 2 * len(labels) {
		e.I64(0) // per-state times, then transition counts
	}
	e.I64(int64(len(labels))) // current: one past the last state
	e.I64(0)
	e.I64(0)
	e.Bool(false)
	d = snapbuf.NewDecoder(e.Buf)
	NewResidency(labels, 0, 0).DecodeState(d, 0)
	if d.Err() == nil {
		t.Error("a state index out of range was accepted")
	}
}

// TestEnergyMeterStateRoundTrip pins the meter's snapshot codec: the
// decoded meter integrates on exactly like the original, and marks past
// the owner's clock are refused.
func TestEnergyMeterStateRoundTrip(t *testing.T) {
	m := NewEnergyMeter(100, 2)
	m.SetPower(1_000_000_100, 3.5)
	data := encodeState(m.AppendState)

	var got EnergyMeter
	d := snapbuf.NewDecoder(data)
	got.DecodeState(d, 1_000_000_100)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if a, b := got.Energy(3_000_000_100), m.Energy(3_000_000_100); a != b {
		t.Fatalf("decoded meter integrated %v J, original %v J", a, b)
	}
	if got.AveragePower(3_000_000_100) != m.AveragePower(3_000_000_100) {
		t.Fatal("average power diverged")
	}

	d = snapbuf.NewDecoder(data)
	new(EnergyMeter).DecodeState(d, 99)
	if d.Err() == nil {
		t.Error("time marks past the clock were accepted")
	}
}
