package scenario

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func mustNew(t *testing.T, name string, phases ...Phase) *Schedule {
	t.Helper()
	s, err := New(name, phases...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsBadPhases(t *testing.T) {
	if _, err := New("empty"); err == nil {
		t.Error("empty phase list accepted")
	}
	if _, err := New("zero", Phase{Duration: 0, StartRate: 1, EndRate: 1}); err == nil {
		t.Error("zero-duration phase accepted")
	}
	if _, err := New("neg", Phase{Duration: 1, StartRate: -1, EndRate: 1}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := New("nan", Phase{Duration: 1, StartRate: math.NaN(), EndRate: 1}); err == nil {
		t.Error("NaN rate accepted")
	}
	if _, err := New("inf", Phase{Duration: 1, StartRate: 1, EndRate: math.Inf(1)}); err == nil {
		t.Error("Inf rate accepted")
	}
	if _, err := New("overflow",
		Phase{Duration: maxTotal, StartRate: 1, EndRate: 1},
		Phase{Duration: maxTotal, StartRate: 1, EndRate: 1}); err == nil {
		t.Error("overflowing total accepted")
	}
}

func TestConstantScheduleHoldsRate(t *testing.T) {
	s, err := Constant("steady", 150e3, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []sim.Time{-5, 0, 1, sim.Millisecond, sim.Second - 1, sim.Second, 2 * sim.Second} {
		if got := s.RateAt(at); got != 150e3 {
			t.Errorf("RateAt(%d) = %v, want 150000 exactly", at, got)
		}
	}
	if got := s.AvgRate(0, sim.Second); got != 150e3 {
		t.Errorf("AvgRate = %v, want 150000 exactly", got)
	}
	if got := s.Requests(0, sim.Second); math.Abs(got-150e3) > 1e-9 {
		t.Errorf("Requests over 1s = %v, want 150000", got)
	}
}

func TestRampInterpolatesLinearly(t *testing.T) {
	s, err := Ramp("ramp", 100, 300, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.RateAt(0); got != 100 {
		t.Errorf("RateAt(0) = %v", got)
	}
	if got := s.RateAt(500); math.Abs(got-200) > 1e-9 {
		t.Errorf("RateAt(mid) = %v, want 200", got)
	}
	if got := s.RateAt(1000); got != 300 {
		t.Errorf("RateAt(end) = %v, want 300 (hold end rate)", got)
	}
	// Integral of a linear ramp = mean * time.
	if got, want := s.Requests(0, 1000), 200*1000/1e9; math.Abs(got-want) > 1e-12 {
		t.Errorf("Requests = %v, want %v", got, want)
	}
}

func TestSpikePhases(t *testing.T) {
	s, err := Spike(100e3, 4, sim.Second, 400*sim.Millisecond, 200*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPhases() != 3 {
		t.Fatalf("phases = %d, want 3", s.NumPhases())
	}
	if p, _ := s.PhaseAt(0); p.Name != "pre" || p.StartRate != 100e3 {
		t.Errorf("phase at 0 = %+v", p)
	}
	if p, _ := s.PhaseAt(500 * sim.Millisecond); p.Name != "spike" || p.StartRate != 400e3 {
		t.Errorf("phase at spike = %+v", p)
	}
	if p, _ := s.PhaseAt(700 * sim.Millisecond); p.Name != "post" {
		t.Errorf("phase at post = %+v", p)
	}
	// Spike at the very start produces no "pre" phase.
	s2, err := Spike(100e3, 2, sim.Second, 0, 100*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := s2.PhaseAt(0); p.Name != "spike" {
		t.Errorf("spike-at-zero first phase = %+v", p)
	}
	if _, err := Spike(100e3, 4, sim.Second, 900*sim.Millisecond, 200*sim.Millisecond); err == nil {
		t.Error("spike overrunning total accepted")
	}
}

func TestDiurnalShape(t *testing.T) {
	total := 240 * sim.Millisecond
	s, err := Diurnal(200e3, 0.6, total, 12)
	if err != nil {
		t.Fatal(err)
	}
	if s.Duration() != total {
		t.Fatalf("duration %d != %d (rounding not absorbed)", s.Duration(), total)
	}
	// Trough at t=0: 0.4x base; peak mid-day: near 1.6x base.
	if got := s.RateAt(0); math.Abs(got-80e3) > 1 {
		t.Errorf("trough rate %v, want ~80000", got)
	}
	peak := s.PeakRate()
	if peak < 310e3 || peak > 320e3 {
		t.Errorf("peak rate %v, want ~320000 (sampled sine)", peak)
	}
	// The day's mean stays near base (piecewise-linear chord of a sine
	// under-estimates the extremes slightly, hence the loose tolerance).
	avg := s.AvgRate(0, total)
	if math.Abs(avg-200e3)/200e3 > 0.02 {
		t.Errorf("day mean %v strays from base 200000", avg)
	}
	if _, err := Diurnal(1, 1.5, total, 12); err == nil {
		t.Error("swing >= 1 accepted")
	}
	if _, err := Diurnal(1, 0.5, total, 1); err == nil {
		t.Error("single segment accepted")
	}
}

func TestRequestsConservedAcrossSplit(t *testing.T) {
	s := mustNew(t, "mix",
		Phase{Name: "a", Duration: 1000, StartRate: 100, EndRate: 300},
		Phase{Name: "b", Duration: 500, StartRate: 300, EndRate: 300},
		Phase{Name: "c", Duration: 1500, StartRate: 300, EndRate: 0},
	)
	whole := s.Requests(0, s.Duration())
	var split float64
	for t0 := sim.Time(0); t0 < s.Duration(); t0 += 250 {
		t1 := t0 + 250
		if t1 > s.Duration() {
			t1 = s.Duration()
		}
		split += s.Requests(t0, t1)
	}
	if math.Abs(whole-split) > 1e-9*math.Abs(whole) {
		t.Errorf("epoch split lost requests: whole %v vs split %v", whole, split)
	}
	// Windows crossing the schedule's ends use the held boundary rates.
	if got, want := s.Requests(-1000, 0), 100*1000/1e9; math.Abs(got-want) > 1e-15 {
		t.Errorf("pre-schedule requests %v, want %v", got, want)
	}
	if got := s.Requests(s.Duration(), s.Duration()+1000); got != 0 {
		t.Errorf("post-schedule requests %v, want 0 (end rate 0)", got)
	}
}

func TestNextChange(t *testing.T) {
	s := mustNew(t, "two",
		Phase{Name: "a", Duration: 100, StartRate: 0, EndRate: 0},
		Phase{Name: "b", Duration: 200, StartRate: 5, EndRate: 5},
	)
	if got := s.NextChange(0); got != 100 {
		t.Errorf("NextChange(0) = %d, want 100", got)
	}
	if got := s.NextChange(100); got != 300 {
		t.Errorf("NextChange(100) = %d, want 300 (end)", got)
	}
	if got := s.NextChange(300); got != sim.MaxTime {
		t.Errorf("NextChange(end) = %d, want MaxTime", got)
	}
	if got := s.NextChange(-5); got != 0 {
		t.Errorf("NextChange(-5) = %d, want 0", got)
	}
}

func TestPhaseStartsMonotonic(t *testing.T) {
	s := mustNew(t, "m",
		Phase{Name: "a", Duration: 7, StartRate: 1, EndRate: 1},
		Phase{Name: "b", Duration: 11, StartRate: 2, EndRate: 2},
		Phase{Name: "c", Duration: 13, StartRate: 3, EndRate: 3},
	)
	for i := 1; i < s.NumPhases(); i++ {
		if s.PhaseStart(i) <= s.PhaseStart(i-1) {
			t.Fatalf("phase starts not strictly increasing: %d then %d",
				s.PhaseStart(i-1), s.PhaseStart(i))
		}
	}
	if s.PhaseStart(2) != 18 {
		t.Errorf("start[2] = %d, want 18", s.PhaseStart(2))
	}
}

func TestFingerprintDistinguishesSchedules(t *testing.T) {
	a, _ := Constant("steady", 100, 1000)
	b, _ := Constant("steady", 200, 1000)
	c, _ := Constant("steady", 100, 1000)
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different rates share a fingerprint")
	}
	if a.Fingerprint() != c.Fingerprint() {
		t.Error("identical schedules disagree on fingerprint")
	}
}

// TestFingerprintEscapesNames pins that phase names cannot forge phase
// boundaries: a single phase whose name spells out "x,1,1,1|y" must not
// fingerprint like the two-phase schedule it imitates, since their rate
// functions differ (1 vs 9 QPS at t=0) and the fingerprint is a memo key.
func TestFingerprintEscapesNames(t *testing.T) {
	two := mustNew(t, "S", Phase{"x", 1, 1, 1}, Phase{"y", 5, 9, 9})
	forged := mustNew(t, "S", Phase{"x,1,1,1|y", 5, 9, 9})
	if two.RateAt(0) == forged.RateAt(0) {
		t.Fatal("fixture schedules must differ in rate")
	}
	if two.Fingerprint() == forged.Fingerprint() {
		t.Errorf("distinct schedules share fingerprint %q", two.Fingerprint())
	}
	// The schedule name is user text too.
	renamed := mustNew(t, "S|x,1,1,1", Phase{"y", 5, 9, 9})
	if renamed.Fingerprint() == two.Fingerprint() {
		t.Errorf("schedule name forged a phase: %q", renamed.Fingerprint())
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		s, err := ByName(name, 100e3, sim.Second)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Duration() != sim.Second {
			t.Errorf("%s: duration %d", name, s.Duration())
		}
		avg := s.AvgRate(0, s.Duration())
		switch name {
		case NameSpike:
			// The spike raises the mean: base*(1 + 3*0.2) = 1.6x.
			if math.Abs(avg-160e3)/160e3 > 0.02 {
				t.Errorf("spike: mean rate %v, want ~160000", avg)
			}
		default:
			// Constant, diurnal and ramp average to their base rate.
			if math.Abs(avg-100e3)/100e3 > 0.02 {
				t.Errorf("%s: mean rate %v strays from base", name, avg)
			}
		}
	}
	if _, err := ByName("hurricane", 1, sim.Second); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := ByName(NameDiurnal, 1, 0); err == nil {
		t.Error("zero-duration scenario accepted")
	}
}
