package server_test

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cstate"
	"repro/internal/governor"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// leaf is one scalar of server.Config reached through its nested
// structs (Platform, Freq, Profile) and through the dynamic values of
// the profile's arrival and service components: a dotted name for
// messages plus the field-index path (interfaces are entered without a
// path step).
type leaf struct {
	name string
	path []int
}

// leaves appends every leaf under v, which must be addressable.
func leaves(v reflect.Value, name string, path []int, out *[]leaf) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			leaves(v.Field(i), strings.TrimPrefix(name+"."+v.Type().Field(i).Name, "."),
				append(path[:len(path):len(path)], i), out)
		}
		return
	case reflect.Interface:
		if dyn := v.Elem(); dyn.IsValid() {
			leaves(reflect.Indirect(dyn), name, path, out)
			return
		}
	}
	*out = append(*out, leaf{name, path})
}

// visit calls fn with the settable leaf at path inside the addressable
// v. Every interface on the way is replaced by a private copy of its
// dynamic value first, so a mutation never reaches a component (such as
// a shared *MMPP2) that another config still holds.
func visit(v reflect.Value, path []int, fn func(reflect.Value)) {
	switch {
	case v.Kind() == reflect.Interface && !v.IsNil():
		dyn := v.Elem()
		cp := reflect.New(reflect.Indirect(dyn).Type())
		cp.Elem().Set(reflect.Indirect(dyn))
		visit(cp.Elem(), path, fn)
		if dyn.Kind() == reflect.Pointer {
			v.Set(cp)
		} else {
			v.Set(cp.Elem())
		}
	case len(path) == 0:
		fn(v)
	default:
		// Unexported component state (an MMPP2's burst phase) is part of
		// the behaviour too, so reach it through its address.
		f := v.Field(path[0])
		visit(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem(), path[1:], fn)
	}
}

// leafOf returns a copy of cfg's leaf at path.
func leafOf(cfg server.Config, path []int) any {
	var out any
	visit(reflect.ValueOf(&cfg).Elem(), path, func(v reflect.Value) { out = v.Interface() })
	return out
}

// perturb changes the leaf v to a different value the simulator still
// accepts. Knobs with a closed vocabulary move to another valid name;
// everything else moves generically by kind.
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch name {
	case "Catalog":
		v.Set(reflect.ValueOf(cstate.Skylake()))
		return
	case "TraceHook":
		v.Set(reflect.ValueOf(func(int, sim.Time, cstate.ID) {}))
		return
	case "Schedule":
		s, err := scenario.Constant("flat", 100e3, sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		v.Set(reflect.ValueOf(s))
		return
	case "GovernorPolicy":
		v.SetString(governor.PolicyLadder)
		return
	case "Dispatch":
		v.SetString(server.DispatchPacked)
		return
	case "LoadGen":
		v.SetString(server.LoadBursty)
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()*(1+1.0/1024) + 1.0/1024)
	case reflect.String:
		v.SetString(v.String() + "~")
	case reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("%s: empty slice in the base config; give it an element", name)
		}
		v.Set(v.Slice(0, v.Len()-1))
	default:
		t.Fatalf("%s: no perturbation for a %s field; add the field to the config encoder and teach this test to move it", name, v.Kind())
	}
}

// TestConfigEncodingCoversEveryField guards the hand-written config
// encoder shared by the runner's memo and class keys and by snapshots.
// Every leaf of server.Config is moved one at a time, and:
//
//   - the memo key changes, or, for a custom Catalog or a TraceHook,
//     the config becomes uncacheable;
//   - a snapshot round trip restores the moved value. An Instance
//     ignores RatePerSec and Schedule, so those two are exempt. Catalog,
//     TraceHook and profile leaves may instead be refused at capture,
//     since a snapshot names its profile by registry entry.
//
// A Config field the encoder misses fails here.
func TestConfigEncodingCoversEveryField(t *testing.T) {
	base := server.Config{
		Platform:        governor.AW,
		Profile:         workload.Kafka(), // MMPP2 arrivals, tailed log-normal service
		RatePerSec:      100e3,
		Warmup:          5 * sim.Millisecond,
		Seed:            21,
		SnoopRatePerSec: 20e3,
	}.Defaults()
	base.Catalog = nil // every knob explicit, so no perturbation is re-defaulted away
	baseKey, ok := runner.Key(base)
	if !ok {
		t.Fatal("base config not cacheable")
	}
	var ls []leaf
	leaves(reflect.ValueOf(&base).Elem(), "", nil, &ls)
	for _, l := range ls {
		t.Run(l.name, func(t *testing.T) {
			cfg := base
			visit(reflect.ValueOf(&cfg).Elem(), l.path, func(v reflect.Value) { perturb(t, l.name, v) })
			if reflect.DeepEqual(leafOf(cfg, l.path), leafOf(base, l.path)) {
				t.Fatal("perturbation left the field unchanged")
			}

			key, ok := runner.Key(cfg)
			uncacheable := l.name == "Catalog" || l.name == "TraceHook"
			switch {
			case uncacheable && ok:
				t.Fatal("config reported cacheable")
			case !uncacheable && (!ok || key == baseKey):
				t.Fatalf("memo key blind to the field (cacheable=%v)", ok)
			}

			if l.name == "RatePerSec" || l.name == "Schedule" {
				return
			}
			ins, err := server.NewInstance(cfg, false)
			if err != nil {
				t.Fatalf("perturbed config rejected: %v", err)
			}
			blob, err := ins.Snapshot()
			if err != nil {
				if uncacheable || strings.HasPrefix(l.name, "Profile.") {
					return // refused at capture
				}
				t.Fatalf("snapshot: %v", err)
			}
			restored, err := server.Restore(blob)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if got, want := leafOf(restored.Orig(), l.path), leafOf(cfg, l.path); !reflect.DeepEqual(got, want) {
				t.Fatalf("snapshot round trip lost the field: restored %v, want %v", got, want)
			}
		})
	}
}
