package main

import (
	"math"
	"testing"
	"time"

	"balancesort"
)

func TestSummarizeMatchesPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(data, n=4), the tool the bounds are checked with.
	cases := []struct {
		data        []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3}, 2, 1, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{5.5, 1, 9, 2, 7, 3.25, 8}, 5.5, 2, 8},
		{[]float64{10, 20}, 15, 7.5, 22.5},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 3.5, 1.75, 5.25},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		s := summarize(c.data)
		if s.Median != c.med || s.Q1 != c.q1 || s.Q3 != c.q3 || s.N != len(c.data) {
			t.Errorf("summarize(%v) = %+v, want median %v q1 %v q3 %v", c.data, s, c.med, c.q1, c.q3)
		}
	}
	if s := summarize([]float64{4, 1, 3, 2}); math.Abs(s.spread()-1) > 1e-12 {
		t.Errorf("spread = %v, want (3.75-1.25)/2.5 = 1", s.spread())
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		name  string
		b     []float64
		lower bool
		want  string
	}{
		{"same", []float64{1.01, 1.00, 0.99, 1.00, 1.01}, true, verdictFlat},
		{"slower", []float64{1.20, 1.21, 1.19, 1.20, 1.22}, true, verdictWorse},
		{"faster", []float64{0.80, 0.81, 0.79, 0.80, 0.82}, true, verdictImproved},
		{"higher is better, dropped", []float64{0.80, 0.81, 0.79, 0.80, 0.82}, false, verdictWorse},
		{"noisy", []float64{0.7, 1.3, 1.0, 0.8, 1.2}, true, verdictUnresolved},
		{"noisy but every run better", []float64{0.5, 0.9, 0.7, 0.6, 0.8}, true, verdictImproved},
	} {
		if got, _ := verdict(steady, c.b, c.lower, 0.05); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	if _, change := verdict(steady, []float64{1.1, 1.1, 1.1}, true, 0.05); math.Abs(change-0.1) > 1e-9 {
		t.Errorf("change = %v, want +0.10", change)
	}
}

func TestTabulateSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []balancesort.Span{
		{Layer: "sort", Name: "distribute-pass", SpanID: 1, Start: 0, Dur: 100 * ms},
		{Layer: "sort", Name: "run-formation", SpanID: 2, Parent: 1, Start: 0, Dur: 40 * ms},
		{Layer: "sort", Name: "distribute-tracks", SpanID: 3, Parent: 1, Start: 50 * ms, Dur: 30 * ms,
			Attrs: []balancesort.SpanAttr{{Key: "model.ios", Val: 5}}},
		// Same span IDs on another node are another process's tree.
		{Layer: "sort", Name: "distribute-pass", Node: 1, SpanID: 1, Start: 0, Dur: 10 * ms,
			Attrs: []balancesort.SpanAttr{{Key: "model.ios", Val: 7}}},
		{Layer: "counter", Name: "disk0.queue", SpanID: 4, Start: 10 * ms},
	}
	tb := tabulate(spans)
	if got := tb.self[spanKey{layer: "sort", name: "distribute-pass"}]; got != 30*ms {
		t.Errorf("coordinator distribute-pass self = %v, want 30ms", got)
	}
	if got := tb.self[spanKey{worker: true, layer: "sort", name: "distribute-pass"}]; got != 10*ms {
		t.Errorf("worker distribute-pass self = %v, want 10ms", got)
	}
	if got := tb.total[spanKey{layer: "sort", name: "run-formation"}]; got != 40*ms {
		t.Errorf("run-formation total = %v, want 40ms", got)
	}
	if got := tb.rootAttrs["sort"]["model.ios"]; got != 7 {
		t.Errorf("root model.ios = %d, want 7 (children are not roots)", got)
	}
	if len(tb.total) != 4 {
		t.Errorf("counter samples must not become phases: %v", tb.total)
	}
}
