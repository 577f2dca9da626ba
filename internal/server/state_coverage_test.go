package server

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/snapbuf"
)

// rebuiltFields lists the fields of the instance state tree and of
// IntervalResult that the snapshot encoders leave out, by declaring
// type and field, with the reason. A listed field's whole subtree is
// skipped. Every other leaf must be encoded.
var rebuiltFields = map[string]string{
	"server.Instance.orig":              "the config block; TestConfigEncodingCoversEveryField covers it",
	"server.Sim.profArrivals":           "the construction config's arrival process, never stepped",
	"server.Sim.cpower":                 "construction input",
	"server.Sim.deepest":                "derived from the menu at construction",
	"server.Sim.kEntryDone":             "event kind newKinds registers",
	"server.Sim.kExitDone":              "event kind newKinds registers",
	"server.Sim.kComplete":              "event kind newKinds registers",
	"server.Sim.kSnoopRet":              "event kind newKinds registers",
	"server.Sim.kSnoopNext":             "event kind newKinds registers",
	"server.Sim.kNoise":                 "event kind newKinds registers",
	"server.Sim.kPkgIdle":               "event kind newKinds registers",
	"server.Sim.kArrival":               "event kind newKinds registers",
	"server.Sim.kConn":                  "event kind newKinds registers",
	"server.Sim.kBurst":                 "event kind newKinds registers",
	"server.Sim.kBurstArrive":           "event kind newKinds registers",
	"server.Sim.baseFreqHz":             "precomputed at construction",
	"server.Sim.turboFreqHz":            "precomputed at construction",
	"server.Sim.pwrActive":              "precomputed at construction",
	"server.Sim.pwrTurbo":               "precomputed at construction",
	"server.Sim.spBase":                 "precomputed at construction",
	"server.Sim.spTurbo":                "precomputed at construction",
	"server.Sim.snoopGapMean":           "precomputed at construction",
	"server.Sim.idlePowerW":             "precomputed at construction",
	"server.Sim.snoopPowerW":            "precomputed at construction",
	"server.Sim.exitPowerW":             "precomputed at construction",
	"server.Sim.swExitNS":               "precomputed at construction",
	"server.Sim.snoopCohere":            "precomputed at construction",
	"server.coreRuntime.idx":            "the core's position",
	"server.Sim.thrFreqHz":              "derived from the throttle state by setThrottle",
	"server.Sim.pwrThr":                 "derived from the throttle state by setThrottle",
	"server.Sim.spThr":                  "derived from the throttle state by setThrottle",
	"server.reqRing.buf":                "ring slots: the live requests are encoded in FIFO order, each field as for coreRuntime.cur",
	"server.reqRing.head":               "ring position: only the live count and order are state",
	"server.reqRing.tail":               "ring position: only the live count and order are state",
	"server.burstyGen.onMean":           "construction input",
	"server.burstyGen.offMean":          "construction input",
	"server.roundRobinDispatch._":       "cache-line padding",
	"server.packedDispatch.cap":         "construction input",
	"sim.Engine.table":                  "handlers newKinds registers",
	"sim.Engine.free":                   "recycled event structs",
	"sim.Engine.buf":                    "queue slots: the pending events are encoded in (when, seq) order",
	"sim.Engine.head":                   "queue window: only the pending events and their order are state",
	"sim.Engine.tail":                   "queue window: only the pending events and their order are state",
	"sim.Event.fn":                      "closure events are refused at capture",
	"sim.Event.queued":                  "set exactly while the event is in the encoded queue",
	"cstate.Machine.catalog":            "construction input",
	"governor.MenuGovernor.catalog":     "construction input",
	"governor.StaticGovernor.catalog":   "construction input",
	"governor.LadderGovernor.catalog":   "construction input",
	"governor.IntervalGovernor.catalog": "construction input",
	"governor.EWMA.alpha":               "construction input",
	"stats.Residency.labels":            "construction input",
	"stats.Histogram.subBuckets":        "geometry fixed by NewHistogram",
	"stats.Histogram.subShift":          "geometry fixed by NewHistogram",
	"xrand.Rand.lnMean":                 "memo of derived parameters; does not move the stream",
	"xrand.Rand.lnCV":                   "memo of derived parameters; does not move the stream",
	"xrand.Rand.lnMu":                   "memo of derived parameters; does not move the stream",
	"xrand.Rand.lnSigma":                "memo of derived parameters; does not move the stream",
	"xrand.Rand.lnParamsPrimed":         "memo of derived parameters; does not move the stream",
	"turbo.Budget.SustainedW":           "construction input",
	"turbo.Budget.CapacityJ":            "construction input",
	"turbo.Budget.ChargeEfficiency":     "construction input",
	"workload.MMPP2.BurstRateBoost":     "profile parameter, checked by the fingerprint",
	"workload.MMPP2.BurstFraction":      "profile parameter, checked by the fingerprint",
	"workload.MMPP2.MeanBurst":          "profile parameter, checked by the fingerprint",
	"server.Result.Config":              "rebuilt from the node config by SetResultConfig",
	"server.CoreStats.Core":             "its position in PerCore",
}

// rebuiltTypes lists types all of whose fields are construction input
// except the named ones, which are walked: the running config is
// rebuilt from the config block, but the arrival process it holds is
// stepped.
var rebuiltTypes = map[string]string{
	"server.Config":    "Profile",
	"workload.Profile": "Arrivals",
}

// pathStep is one step from the walk root to a leaf.
type pathStep struct {
	kind int // stepField, stepDeref, stepIndex or stepIface
	i    int
}

const (
	stepField = iota
	stepDeref
	stepIndex
	stepIface
)

// stateLeaf is one scalar (or aliased pointer, or func) in a state tree.
type stateLeaf struct {
	name  string // path for messages
	field string // declaring type and field, the rebuiltFields key
	path  []pathStep
}

// typeName returns a type's package-qualified name, "pkg.Type".
func typeName(t reflect.Type) string {
	pkg := t.PkgPath()
	return pkg[strings.LastIndex(pkg, "/")+1:] + "." + t.Name()
}

// walkState appends every leaf under v that is neither listed nor
// behind a listed field, recording each listed field it meets in used.
// Slices and arrays are entered at element 0; a pointer already walked
// (an alias, such as a held event handle) is a leaf itself.
func walkState(v reflect.Value, name, field string, path []pathStep, seen map[ref]bool, used map[string]bool, out *[]stateLeaf) {
	step := func(s pathStep) []pathStep { return append(path[:len(path):len(path)], s) }
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		r := ref{v.Pointer(), v.Type()}
		if seen[r] {
			*out = append(*out, stateLeaf{name, field, path})
			return
		}
		seen[r] = true
		walkState(v.Elem(), name, field, step(pathStep{kind: stepDeref}), seen, used, out)
	case reflect.Interface:
		if !v.IsNil() {
			walkState(v.Elem(), name, field, step(pathStep{kind: stepIface}), seen, used, out)
		}
	case reflect.Slice, reflect.Array:
		if v.Len() > 0 {
			walkState(v.Index(0), name+"[0]", field, step(pathStep{kind: stepIndex}), seen, used, out)
		}
	case reflect.Struct:
		tn := typeName(v.Type())
		keep, typeRule := rebuiltTypes[tn]
		if typeRule {
			used[tn] = true
		}
		for i := 0; i < v.NumField(); i++ {
			fn := v.Type().Field(i).Name
			key := tn + "." + fn
			if _, ok := rebuiltFields[key]; ok {
				used[key] = true
				continue
			}
			if typeRule && fn != keep {
				continue
			}
			walkState(v.Field(i), name+"."+fn, key, step(pathStep{stepField, i}), seen, used, out)
		}
	case reflect.Map:
		panic("walkState: maps are not walked; teach the test about " + name)
	default:
		*out = append(*out, stateLeaf{name, field, path})
	}
}

// mutateAt calls fn with the settable value at path under v. An
// interface holding a non-pointer value is rebuilt from a modified copy.
func mutateAt(v reflect.Value, path []pathStep, fn func(reflect.Value)) {
	if len(path) == 0 {
		fn(v)
		return
	}
	s, rest := path[0], path[1:]
	switch s.kind {
	case stepField:
		f := v.Field(s.i)
		mutateAt(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem(), rest, fn)
	case stepDeref:
		mutateAt(v.Elem(), rest, fn)
	case stepIndex:
		mutateAt(v.Index(s.i), rest, fn)
	case stepIface:
		dyn := v.Elem()
		if dyn.Kind() == reflect.Pointer {
			mutateAt(dyn, rest, fn)
			return
		}
		cp := reflect.New(dyn.Type()).Elem()
		cp.Set(dyn)
		mutateAt(cp, rest, fn)
		v.Set(cp)
	}
}

// perturbLeaf moves a leaf to a different value: scalars by kind, an
// aliased pointer or a func to nil.
func perturbLeaf(t *testing.T, l stateLeaf, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()*(1+1.0/1024) + 1.0/1024)
	case reflect.String:
		v.SetString(v.String() + "~")
	case reflect.Pointer, reflect.Func:
		v.Set(reflect.Zero(v.Type()))
	default:
		t.Fatalf("%s: no perturbation for a %s leaf; teach the test to move it", l.name, v.Kind())
	}
}

// TestStateEncodingCoversEveryField guards the hand-written state
// encoders the way TestConfigEncodingCoversEveryField guards the config
// block: across the clone matrix (every load generator, dispatcher and
// governor, parked and faulted), every leaf reachable from a warm
// Instance, through the engine, cores, machines, governors, generator,
// dispatcher and collector, is moved one at a time on a clone, and the
// clone's Snapshot must change or be refused, unless the leaf's field
// is listed in rebuiltFields or rebuiltTypes. A field added to the
// state but missing from the encoder fails here; one missing from Clone
// fails TestCloneEquivalence. A listed field no case reaches is stale.
func TestStateEncodingCoversEveryField(t *testing.T) {
	used := map[string]bool{}
	for _, tc := range cloneMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			base, err := NewInstance(tc.cfg, tc.park)
			if err != nil {
				t.Fatal(err)
			}
			runSteps(t, base, clonePrefix(tc.park, tc.fault))
			want := mustSnapshot(t, base)
			var leaves []stateLeaf
			walkState(reflect.ValueOf(base), "ins", "", nil, map[ref]bool{}, used, &leaves)
			for _, l := range leaves {
				c := base.Clone()
				mutateAt(reflect.ValueOf(c), l.path, func(v reflect.Value) { perturbLeaf(t, l, v) })
				got, err := c.Snapshot()
				if err == nil && bytes.Equal(got, want) {
					t.Errorf("%s (%s) is neither encoded nor listed in rebuiltFields", l.name, l.field)
				}
			}
		})
	}
	for key := range rebuiltFields {
		if !used[key] && !strings.HasPrefix(key, "server.Result.") && !strings.HasPrefix(key, "server.CoreStats.") {
			t.Errorf("rebuiltFields lists %s, which no instance state reaches", key)
		}
	}
	for key := range rebuiltTypes {
		if !used[key] {
			t.Errorf("rebuiltTypes lists %s, which no instance state reaches", key)
		}
	}
}

// TestIntervalResultEncodingCoversEveryField is the same guard for the
// interval measurements a fleet checkpoint stores: every leaf of a
// measured IntervalResult but the listed ones must move its encoding,
// and the decode with SetResultConfig must give the result back.
func TestIntervalResultEncodingCoversEveryField(t *testing.T) {
	cfg := snapCfg()
	ins, err := NewInstance(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	res := runSteps(t, ins, clonePrefix(true, true))
	base := res[len(res)-1]
	enc := func(r *IntervalResult) []byte {
		var e snapbuf.Encoder
		AppendIntervalResult(&e, r)
		return e.Buf
	}
	want := enc(&base)

	d := snapbuf.NewDecoder(want)
	got := DecodeIntervalResult(d, cfg.Defaults().Cores)
	resCfg := ResultConfig(cfg)
	SetResultConfig(&got, &resCfg)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, base) {
		t.Fatalf("decoded result differs\n got %+v\nwant %+v", got, base)
	}

	used := map[string]bool{}
	var leaves []stateLeaf
	walkState(reflect.ValueOf(&base), "res", "", nil, map[ref]bool{}, used, &leaves)
	for _, key := range []string{"server.Result.Config", "server.CoreStats.Core"} {
		if !used[key] {
			t.Errorf("rebuiltFields lists %s, which IntervalResult no longer holds", key)
		}
	}
	for _, l := range leaves {
		c := base
		c.Result.PerCore = append([]CoreStats(nil), base.Result.PerCore...)
		mutateAt(reflect.ValueOf(&c), l.path, func(v reflect.Value) { perturbLeaf(t, l, v) })
		if bytes.Equal(enc(&c), want) {
			t.Errorf("%s (%s) is neither encoded nor listed in rebuiltFields", l.name, l.field)
		}
	}
	if len(leaves) < 20 {
		t.Fatalf("walk found only %d leaves", len(leaves))
	}
}
