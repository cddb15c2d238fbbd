package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestPerLayerMetricsMatchBenchmarkJSON pins the traced run's metric names
// and units to the per_layer list of BENCHMARK.json.
func TestPerLayerMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not beside the package: %v", err)
	}
	var bench struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	tr, jobs, spans, insts := syntheticRun(t)
	m, _, _ := layerMetrics(tr, jobs, spans, insts)
	m["trace.overhead"] = 0 // added by the parent from two runs
	var got, want []string
	for name := range m {
		got = append(got, name)
	}
	for _, pl := range bench.PerLayer {
		want = append(want, pl.Name)
		if u := layerUnit(pl.Name); u != pl.Unit {
			t.Errorf("%s is printed in %s, BENCHMARK.json says %s", pl.Name, u, pl.Unit)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("traced run prints %d metrics, BENCHMARK.json lists %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("metric names differ at %d: %s vs %s", i, got[i], want[i])
		}
	}
}
