package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestManifestMatchesProgram holds BENCHMARK.json at the checkout root to
// the workloads and metrics this program reports.
func TestManifestMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, tc := range []struct {
		kind     string
		manifest []struct{ Name, Unit string }
		program  []metricSpec
	}{
		{"end_to_end", m.EndToEnd, endToEnd},
		{"per_layer", m.PerLayer, perLayer},
	} {
		if len(tc.manifest) != len(tc.program) {
			t.Errorf("%s: manifest lists %d metrics, program %d", tc.kind, len(tc.manifest), len(tc.program))
			continue
		}
		for i, e := range tc.manifest {
			if p := tc.program[i]; e.Name != p.name || e.Unit != p.unit {
				t.Errorf("%s %d: manifest %s [%s], program %s [%s]", tc.kind, i, e.Name, e.Unit, p.name, p.unit)
			}
		}
	}
}
