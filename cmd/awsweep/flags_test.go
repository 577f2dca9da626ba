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
		name string
		set  map[string]bool
		want string // "" means accepted
	}{
		{"plain rate sweep", setOf("service", "config", "rates"), ""},
		{"cluster sweep", setOf("nodes", "cluster-dispatch", "park-drained"), ""},
		{"scenario sweep with knobs", setOf("scenario", "epoch-ms", "replicas", "park-drained"), ""},
		{"controlled scenario sweep", setOf("scenario", "controller", "ctrl-up", "ctrl-down"), ""},
		{"overloaded scenario sweep", setOf("scenario", "overload", "overload-max-util", "overload-backlog-sec"), ""},
		{"scenario file alone", setOf("scenario-file"), ""},

		{"epoch-ms without scenario", setOf("epoch-ms"), "needs -scenario"},
		{"replicas without scenario", setOf("replicas"), "needs -scenario"},
		{"controller without scenario", setOf("controller"), "needs -scenario"},
		{"ctrl tuning without scenario", setOf("ctrl-cooldown"), "needs -scenario"},
		{"ctrl tuning without controller", setOf("scenario", "ctrl-up"), "needs -controller"},
		{"overload without scenario", setOf("overload"), "needs -scenario"},
		{"overload tuning without scenario", setOf("overload-max-util"), "needs -scenario"},
		{"overload tuning without overload", setOf("scenario", "overload-backlog-sec"), "needs -overload"},
		{"park-drained on a single-node sweep", setOf("park-drained", "rates"), "needs -nodes, -cluster-dispatch or -scenario"},
		{"scenario file plus sweep flags", setOf("scenario-file", "rates", "nodes"), "ignored with -scenario-file"},
		{"scenario file plus verbose", setOf("scenario-file", "v"), "-v ignored with -scenario-file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlagCombos(tc.set)
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
