package cstate

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestTable1Values(t *testing.T) {
	c := Skylake()
	cases := []struct {
		id         ID
		power      float64
		transition sim.Time
		residency  sim.Time
	}{
		{C1, 1.44, 2 * sim.Microsecond, 2 * sim.Microsecond},
		{C6A, 0.30, 2 * sim.Microsecond, 2 * sim.Microsecond},
		{C1E, 0.88, 10 * sim.Microsecond, 20 * sim.Microsecond},
		{C6AE, 0.23, 10 * sim.Microsecond, 20 * sim.Microsecond},
		{C6, 0.10, 133 * sim.Microsecond, 600 * sim.Microsecond},
	}
	for _, tc := range cases {
		p := c.Params(tc.id)
		if p.PowerWatts != tc.power {
			t.Errorf("%v power = %v, want %v", tc.id, p.PowerWatts, tc.power)
		}
		if p.TransitionTime != tc.transition {
			t.Errorf("%v transition = %v, want %v", tc.id, p.TransitionTime, tc.transition)
		}
		if p.TargetResidency != tc.residency {
			t.Errorf("%v target residency = %v, want %v", tc.id, p.TargetResidency, tc.residency)
		}
	}
	if c.C0PowerP1 != 4.0 || c.C0PowerPn != 1.0 {
		t.Errorf("C0 power = %v/%v", c.C0PowerP1, c.C0PowerPn)
	}
}

func TestAWStatePowerFractionOfC0(t *testing.T) {
	// Paper abstract: C6A and C6AE consume only 7% and 5% of C0 power.
	c := Skylake()
	fracA := c.Params(C6A).PowerWatts / c.C0PowerP1
	fracAE := c.Params(C6AE).PowerWatts / c.C0PowerP1
	if fracA < 0.05 || fracA > 0.09 {
		t.Errorf("C6A/C0 = %.3f, want ~0.07", fracA)
	}
	if fracAE < 0.04 || fracAE > 0.07 {
		t.Errorf("C6AE/C0 = %.3f, want ~0.05", fracAE)
	}
}

func TestAWHardwareLatency900x(t *testing.T) {
	// Paper: C6A transition (entry+exit) is up to 900x faster than C6.
	c := Skylake()
	c6 := c.Params(C6).HWEntryLatency + c.Params(C6).HWExitLatency
	c6a := c.Params(C6A).HWEntryLatency + c.Params(C6A).HWExitLatency
	ratio := float64(c6) / float64(c6a)
	if ratio < 800 {
		t.Errorf("C6/C6A hardware latency ratio = %.0f, want >= ~900", ratio)
	}
	if c6a > 100*sim.Nanosecond {
		t.Errorf("C6A total hardware latency = %v, want < 100ns", c6a)
	}
}

func TestDeeperStatesCostMoreLatency(t *testing.T) {
	c := Skylake()
	if !(c.Params(C1).TransitionTime <= c.Params(C1E).TransitionTime &&
		c.Params(C1E).TransitionTime <= c.Params(C6).TransitionTime) {
		t.Error("legacy transition times not monotone with depth")
	}
	if !(c.Params(C6A).PowerWatts < c.Params(C1).PowerWatts &&
		c.Params(C6AE).PowerWatts < c.Params(C1E).PowerWatts &&
		c.Params(C6).PowerWatts < c.Params(C6AE).PowerWatts) {
		t.Error("power ordering violated")
	}
}

func TestIDString(t *testing.T) {
	for id, want := range []string{"C0", "C1", "C6A", "C1E", "C6AE", "C6"} {
		if got := ID(id).String(); got != want {
			t.Errorf("ID(%d).String() = %q, want %q", id, got, want)
		}
	}
	if ID(99).String() == "" {
		t.Error("out-of-range String empty")
	}
}

func TestWakeupPenalty(t *testing.T) {
	c := Skylake()
	if c.Params(C0).WakeupPenalty() != 0 {
		t.Error("C0 wakeup penalty nonzero")
	}
	if c.Params(C6).WakeupPenalty() != 133*sim.Microsecond {
		t.Error("C6 wakeup penalty wrong")
	}
}

func TestDeepestByResidency(t *testing.T) {
	c := Skylake()
	menu := []ID{C1, C1E, C6}
	// Long predicted idle: deepest allowed is C6.
	if id, ok := c.DeepestByResidency(menu, sim.Millisecond); !ok || id != C6 {
		t.Errorf("long idle selected %v ok=%v, want C6", id, ok)
	}
	// 30us: C1E admissible, C6 not.
	if id, ok := c.DeepestByResidency(menu, 30*sim.Microsecond); !ok || id != C1E {
		t.Errorf("30us idle selected %v ok=%v, want C1E", id, ok)
	}
	// 1us: nothing admissible, fall back to shallowest (C1).
	if id, ok := c.DeepestByResidency(menu, sim.Microsecond); ok || id != C1 {
		t.Errorf("1us idle selected %v ok=%v, want C1 fallback", id, ok)
	}
	// AW menu: C6A admissible at 2us and deeper than C1.
	if id, ok := c.DeepestByResidency([]ID{C6A, C6}, 5*sim.Microsecond); !ok || id != C6A {
		t.Errorf("AW 5us idle selected %v ok=%v, want C6A", id, ok)
	}
}

func TestDeepestByResidencyEmptyMenu(t *testing.T) {
	c := Skylake()
	if id, ok := c.DeepestByResidency(nil, sim.Second); ok || id != C0 {
		t.Errorf("empty menu returned %v ok=%v", id, ok)
	}
}

// Property: the selected state is always a member of the menu and always
// admissible when ok is true.
func TestPropertyDeepestSelection(t *testing.T) {
	c := Skylake()
	all := c.IdleStates()
	f := func(mask uint8, idleUS uint16) bool {
		var menu []ID
		for i, id := range all {
			if mask&(1<<i) != 0 {
				menu = append(menu, id)
			}
		}
		idle := sim.Time(idleUS) * sim.Microsecond
		id, ok := c.DeepestByResidency(menu, idle)
		if len(menu) == 0 {
			return !ok && id == C0
		}
		found := false
		for _, m := range menu {
			if m == id {
				found = true
			}
		}
		if !found {
			return false
		}
		if ok && c.Params(id).TargetResidency > idle {
			return false
		}
		// When ok, no deeper admissible state may exist in the menu.
		if ok {
			for _, m := range menu {
				p := c.Params(m)
				if p.TargetResidency <= idle && p.PowerWatts < c.Params(id).PowerWatts {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestComponentTableMatchesPaper(t *testing.T) {
	rows := ComponentTable()
	if len(rows) != int(NumStates) {
		t.Fatalf("component table has %d rows", len(rows))
	}
	c6 := ComponentsOf(C6)
	if c6.ADPLL != PLLOff || c6.Caches != CacheFlushed || c6.Context != ContextSRSRAM {
		t.Error("C6 component states wrong")
	}
	for _, id := range []ID{C6A, C6AE} {
		row := ComponentsOf(id)
		if row.ADPLL != PLLOn {
			t.Errorf("%v must keep ADPLL on", id)
		}
		if row.Caches != CacheCoherent {
			t.Errorf("%v must keep caches coherent", id)
		}
		if row.Context != ContextInPlaceSR {
			t.Errorf("%v must retain context in place", id)
		}
		if row.Clocks != ClocksStopped {
			t.Errorf("%v must stop clocks", id)
		}
	}
	// Every state except C0 stops clocks; only C6 turns the PLL off.
	for _, row := range rows {
		if row.State == C0 {
			if row.Clocks != ClocksRunning {
				t.Error("C0 clocks must run")
			}
			continue
		}
		if row.Clocks != ClocksStopped {
			t.Errorf("%v clocks must stop", row.State)
		}
		if row.State != C6 && row.ADPLL != PLLOn {
			t.Errorf("%v PLL must stay on", row.State)
		}
	}
}

func TestComponentStateStrings(t *testing.T) {
	if ClocksRunning.String() != "Running" || ClocksStopped.String() != "Stopped" {
		t.Error("clock strings")
	}
	if PLLOn.String() != "On" || PLLOff.String() != "Off" {
		t.Error("pll strings")
	}
	if CacheCoherent.String() != "Coherent" || CacheFlushed.String() != "Flushed" {
		t.Error("cache strings")
	}
	if VoltagePGRetActive.String() != "PG/Ret/Active" || VoltageShutOff.String() != "Shut-off" {
		t.Error("voltage strings")
	}
	if ContextInPlaceSR.String() != "In-place S/R" {
		t.Error("context strings")
	}
	if P1.String() != "P1" || Pn.String() != "Pn" {
		t.Error("pstate strings")
	}
}

func TestMachineBasicCycle(t *testing.T) {
	c := Skylake()
	m := NewMachine(c, 0)
	if m.Phase() != PhaseActive || m.State() != C0 {
		t.Fatal("machine not active at start")
	}
	// Active 100us, then enter C1.
	entry := m.Enter(C1, 100*sim.Microsecond)
	if entry != c.Params(C1).HWEntryLatency {
		t.Fatalf("entry latency = %v", entry)
	}
	tEntry := 100*sim.Microsecond + entry
	if mustExit, _ := m.EntryComplete(tEntry); mustExit {
		t.Fatal("unexpected pending wake")
	}
	if m.Phase() != PhaseIdle {
		t.Fatal("not idle after entry")
	}
	// Idle until 500us, then wake.
	exitLat, started := m.Wake(500 * sim.Microsecond)
	if !started || exitLat != c.Params(C1).HWExitLatency {
		t.Fatalf("wake: %v %v", exitLat, started)
	}
	m.ExitComplete(500*sim.Microsecond + exitLat)
	if m.Phase() != PhaseActive || m.State() != C0 {
		t.Fatal("not active after exit")
	}
	m.Close(1000 * sim.Microsecond)

	f := m.Fractions()
	idleNS := float64(500*sim.Microsecond - tEntry)
	total := float64(1000 * sim.Microsecond)
	wantC1 := idleNS / total
	if diff := f[C1] - wantC1; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("C1 residency = %v, want %v", f[C1], wantC1)
	}
	if m.Transitions(C1) != 1 {
		t.Fatalf("C1 transitions = %d", m.Transitions(C1))
	}
}

func TestMachineWakeDuringEntry(t *testing.T) {
	c := Skylake()
	m := NewMachine(c, 0)
	m.Enter(C6, 0)
	// Interrupt arrives mid-entry.
	if lat, started := m.Wake(10 * sim.Microsecond); started || lat != 0 {
		t.Fatal("wake during entry must defer")
	}
	mustExit, exitLat := m.EntryComplete(c.Params(C6).HWEntryLatency)
	if !mustExit {
		t.Fatal("pending wake not honored at entry completion")
	}
	if exitLat != c.Params(C6).HWExitLatency {
		t.Fatalf("exit latency = %v", exitLat)
	}
	m.ExitComplete(c.Params(C6).HWEntryLatency + exitLat)
	if m.Phase() != PhaseActive {
		t.Fatal("not active after aborted idle")
	}
	if m.Transitions(C6) != 1 {
		t.Fatal("instantaneous C6 visit not counted as transition")
	}
}

func TestMachineDoubleWakeIsNoop(t *testing.T) {
	c := Skylake()
	m := NewMachine(c, 0)
	m.Enter(C1, 0)
	m.EntryComplete(c.Params(C1).HWEntryLatency)
	if _, started := m.Wake(sim.Microsecond); !started {
		t.Fatal("first wake must start exit")
	}
	if _, started := m.Wake(2 * sim.Microsecond); started {
		t.Fatal("second wake must be a no-op while exiting")
	}
}

func TestMachineEnterWhileIdlePanics(t *testing.T) {
	c := Skylake()
	m := NewMachine(c, 0)
	m.Enter(C1, 0)
	m.EntryComplete(c.Params(C1).HWEntryLatency)
	defer func() {
		if recover() == nil {
			t.Fatal("Enter while idle did not panic")
		}
	}()
	m.Enter(C6, sim.Microsecond)
}

func TestMachineEnterC0Panics(t *testing.T) {
	m := NewMachine(Skylake(), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Enter(C0) did not panic")
		}
	}()
	m.Enter(C0, 0)
}

func TestPowerVectorAndSetPower(t *testing.T) {
	c := Skylake()
	v := c.PowerVector()
	if v[C1] != 1.44 || v[C6] != 0.10 {
		t.Fatal("power vector wrong")
	}
	if c.ResidentPower(C6A) != 0.30 {
		t.Fatalf("C6A resident power = %v", c.ResidentPower(C6A))
	}
	c.SetPower(C1, 2.0)
	if c.PowerVector()[C1] != 2.0 || c.ResidentPower(C1) != 2.0 {
		t.Fatal("SetPower not applied")
	}
}
