package main

import (
	"fmt"
	"sort"
	"strings"
)

// scenarioOnlyFlags only affect a scenario sweep (-scenario). Setting
// one on a plain rate sweep used to be silently ignored — the flag
// parsed fine, the CSV came out, and the knob did nothing.
var scenarioOnlyFlags = []string{
	"epoch-ms", "replicas",
	"controller", "ctrl-up", "ctrl-down", "ctrl-cooldown",
	"overload", "overload-max-util", "overload-backlog-sec",
}

// checkFlagCombos rejects flag combinations that would silently do
// nothing: scenario knobs without -scenario, controller tuning without
// -controller, parking knobs on a single-node sweep, and any other flag
// alongside -scenario-file (the file specifies the whole run). set
// holds the flag names the user explicitly passed (flag.Visit).
func checkFlagCombos(set map[string]bool) error {
	if set["scenario-file"] {
		var extra []string
		for name := range set {
			if name != "scenario-file" {
				extra = append(extra, "-"+name)
			}
		}
		if len(extra) > 0 {
			sort.Strings(extra)
			return fmt.Errorf("%s ignored with -scenario-file: the file specifies the whole run", strings.Join(extra, ", "))
		}
		return nil
	}
	if !set["scenario"] {
		for _, name := range scenarioOnlyFlags {
			if set[name] {
				return fmt.Errorf("-%s only affects a scenario sweep: it needs -scenario (or -scenario-file)", name)
			}
		}
	}
	for _, name := range []string{"ctrl-up", "ctrl-down", "ctrl-cooldown"} {
		if set[name] && !set["controller"] {
			return fmt.Errorf("-%s tunes the closed-loop controller and needs -controller", name)
		}
	}
	for _, name := range []string{"overload-max-util", "overload-backlog-sec"} {
		if set[name] && !set["overload"] {
			return fmt.Errorf("-%s tunes admission control and needs -overload", name)
		}
	}
	if set["park-drained"] && !set["scenario"] && !set["nodes"] && !set["cluster-dispatch"] {
		return fmt.Errorf("-park-drained only affects a cluster or scenario sweep: it needs -nodes, -cluster-dispatch or -scenario")
	}
	return nil
}
