package server

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cstate"
	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// cloneStep is one scripted interval: window, rate and the fault state
// installed for it (inflate > 1 is a straggler, capFrac >= 0 with
// throttle on is a thermal cap).
type cloneStep struct {
	window   sim.Time
	rate     float64
	inflate  float64
	throttle bool
	capFrac  float64
}

func runSteps(t testing.TB, ins *Instance, steps []cloneStep) []IntervalResult {
	t.Helper()
	out := make([]IntervalResult, 0, len(steps))
	for i, st := range steps {
		ins.SetServiceInflation(st.inflate)
		ins.SetTurboCap(st.throttle, st.capFrac)
		res, err := ins.RunInterval(st.window, st.rate)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		out = append(out, res)
	}
	return out
}

func mustSnapshot(t testing.TB, ins *Instance) []byte {
	t.Helper()
	blob, err := ins.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// cloneCase is one row of the clone equivalence matrix.
type cloneCase struct {
	name  string
	cfg   Config
	park  bool
	fault bool // straggler+throttle live across the clone point
}

// cloneMatrix crosses every load generator (open loop, closed loop,
// bursty, and the MMPP2-modulated Kafka profile) with every dispatch
// policy, rotating governor policy, parking and the straggler/throttle
// fault through the rows so each value appears several times.
func cloneMatrix() []cloneCase {
	loadgens := []struct {
		name string
		mut  func(*Config)
	}{
		{"open", func(*Config) {}},
		{"closed", func(c *Config) { c.LoadGen = LoadClosedLoop; c.ClosedLoopConnections = 24 }},
		{"bursty", func(c *Config) { c.LoadGen = LoadBursty }},
		{"mmpp2", func(c *Config) { c.Profile = workload.Kafka() }},
	}
	govs := []string{governor.PolicyMenu, governor.PolicyStatic, governor.PolicyLadder, governor.PolicyInterval}
	var out []cloneCase
	for i, lg := range loadgens {
		for j, disp := range DispatchPolicies() {
			cfg := snapCfg()
			cfg.Dispatch = disp
			cfg.GovernorPolicy = govs[(i+j)%len(govs)]
			cfg.PkgIdleEnabled = j%2 == 1
			lg.mut(&cfg)
			park := (i+j)%2 == 0 && cfg.LoadGen != LoadClosedLoop
			fault := (i+j/2)%2 == 1
			out = append(out, cloneCase{
				name:  fmt.Sprintf("%s/%s/%s/park=%v/fault=%v", lg.name, disp, cfg.GovernorPolicy, park, fault),
				cfg:   cfg,
				park:  park,
				fault: fault,
			})
		}
	}
	return out
}

// clonePrefix is the history before the clone point; clonePrefix's last
// step leaves the straggler+throttle fault installed when fault is set,
// and includes a parked window when park is set.
func clonePrefix(park, fault bool) []cloneStep {
	steps := []cloneStep{
		{window: 7 * sim.Millisecond, rate: 200e3},
		{window: 4 * sim.Millisecond, rate: 120e3, inflate: 2.5, throttle: true, capFrac: 0.5},
	}
	if park {
		steps = append(steps, cloneStep{window: 3 * sim.Millisecond, rate: 0})
	}
	last := cloneStep{window: 5 * sim.Millisecond, rate: 170e3}
	if fault {
		last.inflate, last.throttle, last.capFrac = 3, true, 0.25
	}
	return append(steps, last)
}

// cloneFuture is the shared future both copies step through: the fault
// carried over the clone point first, then a rate change, a zero-rate
// window and recovery.
func cloneFuture(fault bool) []cloneStep {
	first := cloneStep{window: 3 * sim.Millisecond, rate: 170e3}
	if fault {
		first.inflate, first.throttle, first.capFrac = 3, true, 0.25
	}
	return []cloneStep{
		first,
		{window: 6 * sim.Millisecond, rate: 230e3},
		{window: 4 * sim.Millisecond, rate: 0},
		{window: 5 * sim.Millisecond, rate: 150e3, inflate: 1.8},
		{window: 6 * sim.Millisecond, rate: 190e3},
	}
}

// TestCloneEquivalence pins Instance.Clone and Restore against a
// never-cloned twin across the load generator x dispatch x governor x
// park x fault matrix: a clone taken mid-run, a restore of the
// original's snapshot and the original, stepped through the same
// future (the clone first), must all reproduce the twin's
// IntervalResults and Snapshot bytes exactly. Stepping the clone first
// proves the original's future does not feel it.
func TestCloneEquivalence(t *testing.T) {
	for _, tc := range cloneMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Instance {
				ins, err := NewInstance(tc.cfg, tc.park)
				if err != nil {
					t.Fatal(err)
				}
				runSteps(t, ins, clonePrefix(tc.park, tc.fault))
				return ins
			}
			orig, twin := mk(), mk()
			clone := orig.Clone()
			blob := mustSnapshot(t, orig)
			if !bytes.Equal(mustSnapshot(t, clone), blob) {
				t.Fatal("a fresh clone's snapshot differs from its original's")
			}
			restored, err := Restore(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustSnapshot(t, restored), blob) {
				t.Fatal("a restored instance's snapshot differs from the one it was restored from")
			}
			future := cloneFuture(tc.fault)
			cres := runSteps(t, clone, future)
			ores := runSteps(t, orig, future)
			rres := runSteps(t, restored, future)
			tres := runSteps(t, twin, future)
			if !reflect.DeepEqual(cres, tres) {
				t.Errorf("clone's future diverged from the never-cloned twin\nclone %+v\n twin %+v", cres, tres)
			}
			if !reflect.DeepEqual(ores, tres) {
				t.Errorf("stepping the clone first changed the original's future\norig %+v\ntwin %+v", ores, tres)
			}
			if !reflect.DeepEqual(rres, tres) {
				t.Errorf("the restored instance's future diverged from the twin\nrestored %+v\n    twin %+v", rres, tres)
			}
			want := mustSnapshot(t, twin)
			if !bytes.Equal(mustSnapshot(t, clone), want) {
				t.Error("clone's snapshot after the future differs from the twin's")
			}
			if !bytes.Equal(mustSnapshot(t, orig), want) {
				t.Error("original's snapshot after the future differs from the twin's")
			}
			if !bytes.Equal(mustSnapshot(t, restored), want) {
				t.Error("restored instance's snapshot after the future differs from the twin's")
			}
		})
	}
}

// TestCloneBeforeFirstInterval covers the one clone point no interval
// boundary precedes: an instance that has not started yet.
func TestCloneBeforeFirstInterval(t *testing.T) {
	orig, err := NewInstance(snapCfg(), true)
	if err != nil {
		t.Fatal(err)
	}
	clone := orig.Clone()
	future := append(clonePrefix(true, true), cloneFuture(true)...)
	cres := runSteps(t, clone, future)
	ores := runSteps(t, orig, future)
	if !reflect.DeepEqual(cres, ores) {
		t.Errorf("unstarted clone diverged\nclone %+v\n orig %+v", cres, ores)
	}
}

// TestCloneSharesNoMutableState walks everything reachable from a
// clone and from its original and requires the two graphs to be
// disjoint: no pointer, slice backing array or map reachable from the
// clone may be reachable from the original. Only immutable
// construction inputs may be shared: the C-state catalog, the platform
// menu, and funcs (the engines' handler tables, whose closures the
// equivalence test covers).
func TestCloneSharesNoMutableState(t *testing.T) {
	shared := map[reflect.Type]bool{
		reflect.TypeOf((*cstate.Catalog)(nil)): true,
		reflect.TypeOf([]cstate.ID(nil)):       true,
	}
	for _, tc := range cloneMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			orig, err := NewInstance(tc.cfg, tc.park)
			if err != nil {
				t.Fatal(err)
			}
			runSteps(t, orig, clonePrefix(tc.park, tc.fault))
			clone := orig.Clone()

			origRefs := map[ref]string{}
			walkRefs(reflect.ValueOf(orig), "orig", map[ref]bool{}, func(r ref, path string) {
				origRefs[r] = path
			})
			walkRefs(reflect.ValueOf(clone), "clone", map[ref]bool{}, func(r ref, path string) {
				if shared[r.typ] {
					return
				}
				if p, ok := origRefs[r]; ok {
					t.Errorf("%s (%v) is also reachable from the original as %s", path, r.typ, p)
				}
			})
		})
	}
}

// ref identifies one referenced object: its address and static type
// (a struct and its first field share an address).
type ref struct {
	addr uintptr
	typ  reflect.Type
}

// walkRefs reports every pointer, slice backing array and map reachable
// from v, depth first, descending through unexported fields. Funcs are
// not walked: reflection cannot see into a closure.
func walkRefs(v reflect.Value, path string, seen map[ref]bool, visit func(ref, string)) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice:
		if v.IsNil() || (v.Kind() == reflect.Slice && v.Cap() == 0) {
			return
		}
		r := ref{v.Pointer(), v.Type()}
		if seen[r] {
			return
		}
		seen[r] = true
		visit(r, path)
		switch v.Kind() {
		case reflect.Pointer:
			walkRefs(v.Elem(), path, seen, visit)
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walkRefs(it.Key(), path+"[key]", seen, visit)
				walkRefs(it.Value(), path+"[val]", seen, visit)
			}
		default:
			for i := 0; i < v.Len(); i++ {
				walkRefs(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen, visit)
			}
		}
	case reflect.Interface:
		if !v.IsNil() {
			walkRefs(v.Elem(), path, seen, visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkRefs(v.Field(i), path+"."+v.Type().Field(i).Name, seen, visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkRefs(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen, visit)
		}
	}
}

// FuzzInstanceClone drives clone equivalence from arbitrary inputs: a
// random script of (window, rate, fault) intervals and a random clone
// point; the clone steps the rest of the script first, then the
// original, and the two must agree interval for interval and in their
// final snapshots.
func FuzzInstanceClone(f *testing.F) {
	f.Add(uint64(21), []byte{3, 200, 0, 2, 0, 1, 5, 120, 2, 4, 90, 3}, uint8(2), uint8(0), false)
	f.Add(uint64(7), []byte{1, 50, 0, 6, 0, 0, 2, 250, 3}, uint8(1), uint8(2), true)
	f.Add(uint64(99), []byte{4, 180, 1, 4, 180, 1, 3, 10, 0, 5, 0, 2}, uint8(3), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed uint64, script []byte, cut, lg uint8, park bool) {
		if len(script) > 3*12 {
			script = script[:3*12]
		}
		var steps []cloneStep
		for i := 0; i+2 < len(script); i += 3 {
			st := cloneStep{
				window: sim.Time(script[i]%6+1) * sim.Millisecond,
				rate:   float64(script[i+1]) * 1e3,
			}
			switch script[i+2] % 4 {
			case 1:
				st.inflate = 2.5
			case 2:
				st.throttle, st.capFrac = true, 0.4
			case 3:
				st.inflate, st.throttle, st.capFrac = 1.7, true, 0
			}
			steps = append(steps, st)
		}
		if len(steps) == 0 {
			return
		}
		cfg := snapCfg()
		cfg.Seed = seed
		switch lg % 4 {
		case 1:
			cfg.LoadGen = LoadBursty
		case 2:
			cfg.Profile = workload.Kafka()
		case 3:
			cfg.LoadGen, cfg.ClosedLoopConnections = LoadClosedLoop, 16
			park = false
		}
		orig, err := NewInstance(cfg, park)
		if err != nil {
			t.Fatal(err)
		}
		k := int(cut) % (len(steps) + 1)
		runSteps(t, orig, steps[:k])
		clone := orig.Clone()
		cres := runSteps(t, clone, steps[k:])
		ores := runSteps(t, orig, steps[k:])
		if !reflect.DeepEqual(cres, ores) {
			t.Fatalf("clone at step %d diverged\nclone %+v\n orig %+v", k, cres, ores)
		}
		if !bytes.Equal(mustSnapshot(t, clone), mustSnapshot(t, orig)) {
			t.Fatalf("clone at step %d: final snapshots differ", k)
		}
	})
}

// BenchmarkInstanceClone measures one Clone of a warm snapshot-test
// node (20 cores, snoop traffic, a fault history): the per-node cost a
// what-if fork or a class split pays instead of a history replay.
func BenchmarkInstanceClone(b *testing.B) {
	ins, err := NewInstance(snapCfg(), true)
	if err != nil {
		b.Fatal(err)
	}
	runSteps(b, ins, append(clonePrefix(true, true), cloneFuture(true)...))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ins.Clone()
	}
}

// warmSnapNode is the benchmark node BenchmarkInstanceClone steps: 20
// cores, snoop traffic, a fault history and a parked window.
func warmSnapNode(b *testing.B) *Instance {
	ins, err := NewInstance(snapCfg(), true)
	if err != nil {
		b.Fatal(err)
	}
	runSteps(b, ins, append(clonePrefix(true, true), cloneFuture(true)...))
	return ins
}

// BenchmarkInstanceSnapshot measures one Snapshot of the warm node,
// reporting the payload size: the warm state is encoded whatever the
// history length.
func BenchmarkInstanceSnapshot(b *testing.B) {
	ins := warmSnapNode(b)
	var size int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		size = len(mustSnapshot(b, ins))
	}
	b.ReportMetric(float64(size), "bytes")
}

// BenchmarkInstanceRestore measures one Restore of the warm node's
// snapshot: checksum, config decode, NewInstance and the state decode.
func BenchmarkInstanceRestore(b *testing.B) {
	blob := mustSnapshot(b, warmSnapNode(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Restore(blob); err != nil {
			b.Fatal(err)
		}
	}
}
