package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps the committed benchmark description in
// step with what the command prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if got := sortedKeys(raw); !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "perfbench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"perfbench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, code has %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, code has %d", len(b.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != m.name || e.Unit != m.unit {
			t.Errorf("end_to_end %d: %s %s, code has %s %s", i, e.Name, e.Unit, m.name, m.unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			setupBound = e.Bound
		}
		if e.Bound > maxBound {
			maxBound = e.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(b.PerLayer) != len(layerSpecs) {
		t.Fatalf("%d per-layer metrics, code has %d", len(b.PerLayer), len(layerSpecs))
	}
	for i, s := range layerSpecs {
		if p := b.PerLayer[i]; p.Name != s.name || p.Unit != s.unit || p.Better != s.better {
			t.Errorf("per_layer %d: %+v, code has %+v", i, p, s)
		}
	}
}
