package main

import (
	"testing"

	agilewatts "repro"
)

// TestSectionsCoverEveryExperiment pins the report's claim to run every
// experiment: each name in agilewatts.Experiments() appears in exactly
// one section, once, and no section names anything else.
func TestSectionsCoverEveryExperiment(t *testing.T) {
	seen := map[string]int{}
	for _, sec := range sections {
		for _, name := range sec.names {
			seen[name]++
		}
	}
	for _, name := range agilewatts.Experiments() {
		if seen[name] != 1 {
			t.Errorf("experiment %q appears %d times in the report, want 1", name, seen[name])
		}
		delete(seen, name)
	}
	for name := range seen {
		t.Errorf("report section names unknown experiment %q", name)
	}
}
