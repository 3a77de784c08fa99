package mark

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root and the definitions here must
// name the same workloads and metrics with the same units and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	wls := Workloads()
	if len(file.Workloads) != len(wls) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(file.Workloads), len(wls))
	}
	for i, w := range wls {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs %q / %q", i, file.Workloads[i], w.Name, w.Why)
		}
	}
	e2e := EndToEnd()
	if len(file.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(file.EndToEnd), len(e2e))
	}
	seen := map[string]bool{}
	for i, m := range e2e {
		f := file.EndToEnd[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || f.Bound != m.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, f, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		seen[m.Name] = true
	}
	per := PerLayer()
	if len(file.PerLayer) != len(per) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(file.PerLayer), len(per))
	}
	for i, m := range per {
		f := file.PerLayer[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
			t.Errorf("per-layer %d: %+v vs %+v", i, f, m)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
}
