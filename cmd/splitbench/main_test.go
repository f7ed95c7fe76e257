package main

import (
	"strings"
	"testing"
)

func TestResolveExperiment(t *testing.T) {
	exps, order := experiments()
	if len(exps) != len(order) {
		t.Fatalf("registry has %d experiments but order lists %d", len(exps), len(order))
	}
	for _, id := range order {
		if _, ok := exps[id]; !ok {
			t.Fatalf("order entry %q missing from the registry", id)
		}
		mixed := strings.ToLower(id[:1]) + id[1:] // e.g. "e1", "t8"
		for _, name := range []string{id, strings.ToLower(id), mixed} {
			run, err := resolveExperiment(name, exps, order)
			if err != nil || run == nil {
				t.Fatalf("resolveExperiment(%q) = %v, want the %s experiment", name, err, id)
			}
		}
	}
	// The five throughput snapshots moved to bench/; their names are
	// errors like any other, not aliases.
	for _, bad := range []string{"", "EVAL", "SPLIT", "READER", "PREFILTER", "MULTI", "bogus", "E 1", "all "} {
		run, err := resolveExperiment(bad, exps, order)
		if err == nil || run != nil {
			t.Fatalf("resolveExperiment(%q) must be a hard error", bad)
		}
		msg := err.Error()
		if !strings.Contains(msg, "valid experiments are") {
			t.Fatalf("error for %q must list the valid experiments, got: %s", bad, msg)
		}
		for _, id := range order {
			if !strings.Contains(msg, id) {
				t.Fatalf("error for %q omits experiment %s: %s", bad, id, msg)
			}
		}
	}
}
