package snoop

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cstate"
)

func TestSavingsBoundsMatchPaper(t *testing.T) {
	a := FromCatalog(cstate.Skylake())
	// Paper Sec. 7.5: 79% with no snoops, 68% at saturation, ~11pp loss.
	if s := a.SavingsNoSnoops(); math.Abs(s-79.2) > 0.5 {
		t.Errorf("no-snoop savings = %.1f%%, want ~79%%", s)
	}
	if s := a.SavingsAtDuty(1); math.Abs(s-68.5) > 0.8 {
		t.Errorf("saturated savings = %.1f%%, want ~68%%", s)
	}
	if l := a.Sweep([]float64{1})[0].LossVsNoSnoopPP; l < 9 || l > 13 {
		t.Errorf("worst-case loss = %.1fpp, want ~11pp", l)
	}
}

func TestSavingsAtDutyEndpoints(t *testing.T) {
	a := FromCatalog(cstate.Skylake())
	if math.Abs(a.SavingsAtDuty(0)-a.SavingsNoSnoops()) > 1e-9 {
		t.Error("duty 0 != no-snoop savings")
	}
	if want := (a.C1SnoopW - a.C6ASnoopW) / a.C1SnoopW * 100; math.Abs(a.SavingsAtDuty(1)-want) > 1e-9 {
		t.Error("duty 1 != saturated savings")
	}
	// Clamping.
	if a.SavingsAtDuty(-1) != a.SavingsAtDuty(0) || a.SavingsAtDuty(2) != a.SavingsAtDuty(1) {
		t.Error("duty not clamped")
	}
}

func TestSweep(t *testing.T) {
	a := FromCatalog(cstate.Skylake())
	rows := a.Sweep([]float64{0, 0.25, 0.5, 0.75, 1})
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Savings decline monotonically with duty.
	for i := 1; i < len(rows); i++ {
		if rows[i].SavingsPercent > rows[i-1].SavingsPercent {
			t.Fatal("savings not monotone in duty")
		}
	}
	if rows[0].LossVsNoSnoopPP != 0 {
		t.Fatal("zero-duty loss nonzero")
	}
	if rows[4].LossVsNoSnoopPP < 9 {
		t.Fatal("saturated loss too small")
	}
}

func TestSweepPanicsOutOfRange(t *testing.T) {
	a := FromCatalog(cstate.Skylake())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range duty did not panic")
		}
	}()
	a.Sweep([]float64{1.5})
}

// Property: savings at any duty lie between the two bounds.
func TestPropertySavingsBounded(t *testing.T) {
	a := FromCatalog(cstate.Skylake())
	f := func(d float64) bool {
		d = math.Mod(math.Abs(d), 1)
		s := a.SavingsAtDuty(d)
		return s <= a.SavingsNoSnoops()+1e-9 && s >= a.SavingsAtDuty(1)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroPowerGuards(t *testing.T) {
	var a Analysis
	if a.SavingsNoSnoops() != 0 || a.SavingsAtDuty(1) != 0 || a.SavingsAtDuty(0.5) != 0 {
		t.Fatal("zero-power analysis must return 0")
	}
}
