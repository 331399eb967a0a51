package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestMain lets the test binary serve as its own set-up child process.
func TestMain(m *testing.M) {
	if spec := os.Getenv(setupEnv); spec != "" {
		os.Exit(runSetupChild(spec))
	}
	os.Exit(m.Run())
}

// TestQuickWorkloads runs every workload at toy size with a traced
// repetition: every op must check out against the oracle and every
// end-to-end metric must be positive.
func TestQuickWorkloads(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			rc := runConfig{Workload: wl.name, Seed: 3, Seconds: 0.2, Trace: true, Quick: true,
				Work: t.TempDir(), OutDir: t.TempDir()}
			r := newResult()
			if err := wl.run(rc, r); err != nil {
				t.Fatal(err)
			}
			if r.Attempted == 0 || r.Failed != 0 {
				t.Fatalf("%d ops, %d failed", r.Attempted, r.Failed)
			}
			for _, m := range endToEnd {
				if v := r.Values[m.Name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", m.Name, v)
				}
			}
			for _, m := range perLayer {
				if v := r.Values[m.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", m.Name, v)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesCatalogue pins BENCHMARK.json to the workloads
// and metrics the program reports.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricDef, names, units, betters []string) {
		if len(names) != len(got) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(names), len(got))
		}
		for i, m := range got {
			if names[i] != m.Name || units[i] != m.Unit || betters[i] != m.Better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, program %s/%s/%s",
					kind, i, names[i], units[i], betters[i], m.Name, m.Unit, m.Better)
			}
		}
	}
	var n, u, b []string
	for _, m := range bf.EndToEnd {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, n, u, b)
	n, u, b = nil, nil, nil
	for _, m := range bf.PerLayer {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("per_layer", perLayer, n, u, b)
}
