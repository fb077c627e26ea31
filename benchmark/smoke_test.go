package main

import (
	"testing"
)

// The subprocess smoke: every workload, both modes, against real matchd
// and router processes, on the -quick sizes. Minutes of wall time go to
// mining the toy verticals, so -short skips it.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers; skipped with -short")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopAllChildren)
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			res, err := runWorkload(w, root, spec, options{Seed: 1, Seconds: 2, Trace: trace, Sizes: quickSizes})
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace %d: %d of %d failed", w.Name, trace, res.Failed, res.Attempted)
			}
			if trace == 1 && res.Metrics["match.recall.exact"].Value != 1 {
				t.Errorf("%s: match.recall.exact = %v", w.Name, res.Metrics["match.recall.exact"].Value)
			}
			if w.Fleet && trace == 1 && res.Metrics["serve.cache_hit_ratio"].Value < 0.5 {
				t.Errorf("%s: cache hit ratio %v", w.Name, res.Metrics["serve.cache_hit_ratio"].Value)
			}
		}
	}
	children.Lock()
	left := len(children.live)
	children.Unlock()
	if left != 0 {
		t.Errorf("%d server processes left running", left)
	}
}
