package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"
)

// toySize shrinks every workload to a seconds-long smoke: one dataset at
// one budget (five cells) and short load-generator runs.
var toySize = size{datasets: 1, budgets: []time.Duration{10 * time.Second}, requests: 300, setups: 2}

// TestWorkloadsSmoke runs every workload at toy size, untraced and traced,
// through the correctness gate a benchmark run applies.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				out, err := runWorkload(w, 7, 0, traced, toySize, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !out.res.Correct {
					t.Fatalf("correctness gate failed: %v", out.st.Failures)
				}
				if out.res.Attempted < 1 {
					t.Errorf("attempted %d operations", out.res.Attempted)
				}
				if len(out.st.Pinned) == 0 {
					t.Error("no pinned outputs")
				}
				if len(out.res.Metrics) != len(out.specs) {
					t.Errorf("%d metrics reported, want %d", len(out.res.Metrics), len(out.specs))
				}
				for _, m := range out.specs {
					v, ok := out.res.Metrics[m.name]
					if !ok {
						t.Errorf("metric %s missing", m.name)
					} else if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, v.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and this package in
// step: the same workloads and metrics, in order, with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	for _, c := range []struct {
		key  string
		got  []struct{ Name, Unit string }
		want []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer()}} {
		var got []metricSpec
		for _, m := range c.got {
			got = append(got, metricSpec{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("BENCHMARK.json %s %v, code %v", c.key, got, c.want)
		}
	}
}
