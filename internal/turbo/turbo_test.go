package turbo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFreqPlanValidate(t *testing.T) {
	if err := Xeon4114().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := FreqPlan{BaseHz: 1, MinHz: 2, TurboHz: 3}
	if err := bad.Validate(); err == nil {
		t.Fatal("min > base passed validation")
	}
}

func TestSpeedup(t *testing.T) {
	// Fully scalable workload doubles with frequency.
	if s := Speedup(1.0, 1e9, 2e9); math.Abs(s-2) > 1e-12 {
		t.Fatalf("s=1 speedup = %v", s)
	}
	// Insensitive workload does not change.
	if s := Speedup(0, 1e9, 2e9); s != 1 {
		t.Fatalf("s=0 speedup = %v", s)
	}
	// Memcached-like s=0.45 from 2.0 to 2.2 GHz: +4.5%.
	sp := Speedup(0.45, 2.0e9, 2.2e9)
	if math.Abs(sp-1.045) > 1e-9 {
		t.Fatalf("speedup = %v, want 1.045", sp)
	}
	if Speedup(1, 0, 1e9) != 1 {
		t.Fatal("zero reference must give 1")
	}
}

func TestScalabilityPercent(t *testing.T) {
	// perf +4.5% for freq +10% => scalability 45%.
	got := ScalabilityPercent(100, 104.5, 2.0e9, 2.2e9)
	if math.Abs(got-45) > 0.01 {
		t.Fatalf("scalability = %v, want 45", got)
	}
	if ScalabilityPercent(0, 1, 1, 2) != 0 || ScalabilityPercent(1, 2, 1, 1) != 0 {
		t.Fatal("degenerate inputs must give 0")
	}
}

func TestBudgetChargeAndDrain(t *testing.T) {
	b := NewBudget(100, 50)
	if !b.BoostAllowed() || b.Stored() != b.CapacityJ {
		t.Fatal("budget must start full")
	}
	// 1s at 150W (50W over): drains 50J -> empty.
	b.Update(0, 150)
	b.Update(1e9, 150)
	if b.Stored() > 1e-9 {
		t.Fatalf("stored = %v, want 0", b.Stored())
	}
	if b.BoostAllowed() {
		t.Fatal("boost allowed with empty budget")
	}
	// 0.5s at 60W (40W under): recharges 20J.
	b.Update(1.5e9, 60)
	if math.Abs(b.Stored()-20) > 1e-9 {
		t.Fatalf("stored = %v, want 20", b.Stored())
	}
	// Never exceeds capacity.
	b.Update(100e9, 0)
	if b.Stored() != 50 {
		t.Fatalf("stored = %v, want capped at 50", b.Stored())
	}
}

func TestBudgetLowIdlePowerChargesFaster(t *testing.T) {
	// The Sec. 7.3 mechanism: idling at C6A power leaves more headroom
	// than idling at C1 power.
	hi := NewBudget(100, 1000)
	lo := NewBudget(100, 1000)
	hi.Update(0, 150)
	lo.Update(0, 150)
	hi.Update(1e9, 150) // both drained some
	lo.Update(1e9, 150)
	hi.Update(2e9, 90) // idle at C1-ish power
	lo.Update(2e9, 60) // idle at C6A-ish power
	hi.Update(3e9, 90)
	lo.Update(3e9, 60)
	if lo.Stored() <= hi.Stored() {
		t.Fatalf("lower idle power must recharge more: lo=%v hi=%v", lo.Stored(), hi.Stored())
	}
}

func TestBudgetBackwardsPanics(t *testing.T) {
	b := NewBudget(10, 10)
	b.Update(100, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards update did not panic")
		}
	}()
	b.Update(50, 5)
}

func TestCorePowerAnchors(t *testing.T) {
	cp := NewCorePower(Xeon4114())
	// Table 1 anchors: 1W at Pn, ~4W at P1.
	if p := cp.AtFreq(0.8e9); math.Abs(p-1.0) > 0.01 {
		t.Fatalf("P(0.8GHz) = %v, want 1", p)
	}
	if p := cp.AtFreq(2.2e9); math.Abs(p-4.0) > 0.05 {
		t.Fatalf("P(2.2GHz) = %v, want ~4", p)
	}
	// Turbo point must exceed P1 power.
	if cp.AtFreq(3.0e9) <= cp.AtFreq(2.2e9) {
		t.Fatal("turbo power not above base power")
	}
	if cp.AtFreq(0) != 0 {
		t.Fatal("P(0) != 0")
	}
}

// Property: speedup is monotone in frequency for any scalability in [0,1].
func TestPropertySpeedupMonotone(t *testing.T) {
	f := func(s01 uint8, f1MHz, f2MHz uint16) bool {
		s := float64(s01%101) / 100
		f1 := float64(f1MHz%3000+100) * 1e6
		f2 := float64(f2MHz%3000+100) * 1e6
		if f1 > f2 {
			f1, f2 = f2, f1
		}
		return Speedup(s, 1e9, f1) <= Speedup(s, 1e9, f2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the budget never goes negative or above capacity.
func TestPropertyBudgetBounded(t *testing.T) {
	f := func(powers []uint8) bool {
		b := NewBudget(50, 25)
		now := int64(0)
		for _, p := range powers {
			now += 1e8
			b.Update(now, float64(p))
			if b.Stored() < 0 || b.Stored() > b.CapacityJ {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
