package main

import (
	"strings"
	"testing"
)

func setOf(names ...string) map[string]bool {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return set
}

func TestCheckFlagCombos(t *testing.T) {
	cases := []struct {
		name        string
		set         map[string]bool
		experiments []string
		want        string // "" means accepted
	}{
		{"no flags, default run", setOf(), nil, ""},
		{"quick seed, default run", setOf("quick", "seed"), nil, ""},
		{"scenario knobs with the scenario experiment", setOf("scenario", "epoch-ms", "replicas"), []string{"scenario"}, ""},
		{"controller tuning with a controller", setOf("controller", "ctrl-cooldown"), []string{"scenario"}, ""},
		{"overloaded scenario experiment", setOf("overload", "overload-max-util"), []string{"scenario"}, ""},
		{"overload tuning on the overload experiment", setOf("overload-max-util", "overload-backlog-sec"), []string{"overload"}, ""},
		{"scenario file alone", setOf("scenario-file"), nil, ""},
		{"fleet flags on the cluster experiment", setOf("nodes", "cluster-dispatch"), []string{"cluster"}, ""},
		{"fleet flags on the scenario experiment", setOf("nodes", "cluster-dispatch"), []string{"figure8", "scenario"}, ""},
		{"nodes on the faults experiment", setOf("nodes"), []string{"faults"}, ""},
		{"nodes on the overload experiment", setOf("nodes"), []string{"overload"}, ""},

		{"scenario shape without the experiment", setOf("scenario"), nil, `only affects the "scenario" experiment`},
		{"epoch-ms on the cluster experiment", setOf("epoch-ms"), []string{"cluster"}, `only affects the "scenario" experiment`},
		{"replicas without the experiment", setOf("replicas"), nil, `only affects the "scenario" experiment`},
		{"controller without the experiment", setOf("controller"), nil, `only affects the "scenario" experiment`},
		{"ctrl tuning without a controller", setOf("ctrl-up"), []string{"scenario"}, "needs -controller"},
		{"ctrl cooldown without a controller", setOf("ctrl-cooldown"), []string{"scenario"}, "needs -controller"},
		{"overload policy without the scenario experiment", setOf("overload"), []string{"overload"}, `applies admission control to the "scenario" experiment`},
		{"overload tuning without a consumer", setOf("overload-backlog-sec"), []string{"cluster"}, `needs -overload or the "overload" experiment`},
		{"nodes on a figure", setOf("nodes"), []string{"figure8"}, `-nodes only affects the "cluster", "scenario", "faults", "overload" experiments`},
		{"nodes on the default run", setOf("nodes"), nil, "-nodes only affects"},
		{"cluster dispatch on a figure", setOf("cluster-dispatch"), []string{"figure8"}, `-cluster-dispatch only affects the "cluster", "scenario" experiments`},
		{"cluster dispatch on the faults experiment", setOf("cluster-dispatch"), []string{"faults"}, "-cluster-dispatch only affects"},
		{"cluster dispatch on the overload experiment", setOf("nodes", "cluster-dispatch"), []string{"overload"}, "-cluster-dispatch only affects"},
		{"scenario file plus other flags", setOf("scenario-file", "nodes", "controller"), nil, "ignored with -scenario-file"},
		{"scenario file plus quick", setOf("scenario-file", "quick"), nil, "-quick ignored with -scenario-file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlagCombos(tc.set, tc.experiments)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("rejected a valid combination: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("accepted an ineffective flag combination")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
