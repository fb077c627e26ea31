package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.05}
	higher := metricSpec{Name: "throughput_qps", Better: "higher", Bound: 0.05}
	cases := []struct {
		spec    metricSpec
		a, b    metric
		verdict string
	}{
		{lower, metric{Value: 1.00}, metric{Value: 1.04}, verdictOK},
		{lower, metric{Value: 1.00}, metric{Value: 1.06}, verdictRegressed},
		{lower, metric{Value: 1.00}, metric{Value: 0.50}, verdictOK},
		{higher, metric{Value: 1000}, metric{Value: 960}, verdictOK},
		{higher, metric{Value: 1000}, metric{Value: 940}, verdictRegressed},
		{higher, metric{Value: 1000}, metric{Value: 2000}, verdictOK},
		// spread wider than the bound on either side: noise, not a verdict
		{lower, metric{Value: 1.00, Spread: 0.08}, metric{Value: 1.20}, verdictUnresolved},
		{lower, metric{Value: 1.00}, metric{Value: 1.20, Spread: 0.08}, verdictUnresolved},
	}
	for _, c := range cases {
		if _, got := judge(c.spec, c.a, c.b); got != c.verdict {
			t.Errorf("%s %v -> %v: %s, want %s", c.spec.Name, c.a, c.b, got, c.verdict)
		}
	}
}

func testSets() (*benchSpec, *runSet, *runSet) {
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.05}}}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{Name: w.Name})
	}
	mk := func(v float64) *runSet {
		rs := &runSet{}
		for _, w := range workloads {
			rs.Runs = append(rs.Runs, &runResult{Workload: w.Name, Attempted: 100, Metrics: map[string]metric{"latency_p50_ms": {Value: v}}})
		}
		return rs
	}
	return spec, mk(1.0), mk(1.02)
}

func TestCompare(t *testing.T) {
	spec, a, b := testSets()
	var out bytes.Buffer
	if !compare(&out, spec, a, b) {
		t.Errorf("sets within bounds did not pass:\n%s", out.String())
	}
	if got := strings.Count(out.String(), verdictOK); got != len(workloads) {
		t.Errorf("%d ok rows, want one per workload:\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "B/A") {
		t.Error("ratio printed without its base")
	}

	b.Runs[2].Metrics["latency_p50_ms"] = metric{Value: 1.2}
	out.Reset()
	if compare(&out, spec, a, b) {
		t.Error("a 20% latency regression passed")
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("no regressed row:\n%s", out.String())
	}

	_, a, b = testSets()
	b.Runs[0].Failed = 1
	if compare(&out, spec, a, b) {
		t.Error("a failed request passed")
	}

	_, a, b = testSets()
	b.Runs = b.Runs[1:]
	if compare(&out, spec, a, b) {
		t.Error("a missing workload passed")
	}
}
