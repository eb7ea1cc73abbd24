package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload for 0.6 s on a twentieth of its
// standing population, untraced and traced, and requires the output
// checks to pass with no failed procedure and every metric BENCHMARK.json
// names to be reported.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, livebench runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := workloadByName(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown", sw.Name)
		}
		for _, trace := range []bool{false, true} {
			res, err := run(runConfig{w: w, seed: 7, seconds: 600 * time.Millisecond, trace: trace, popDiv: 20})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestQuartile checks quartile against Python's statistics.quantiles,
// which steady.py uses for the spreads.
func TestQuartile(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{7}, 7, 7},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
	} {
		if q1, q3 := quartile(c.xs, 1), quartile(c.xs, 3); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles of %v = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
