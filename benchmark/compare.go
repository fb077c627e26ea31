package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// runSet is the file -all writes: every workload, both modes, one seed.
type runSet struct {
	Env   environment  `json:"env"`
	Seed  uint64       `json:"seed"`
	Quick bool         `json:"quick,omitempty"`
	Claim *string      `json:"claim"` // a benchmark-defining change claims no gain
	Runs  []*runResult `json:"runs"`
}

func readRunSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs runSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// find returns the run of workload in mode trace, or nil.
func (rs *runSet) find(workload string, trace int) *runResult {
	for _, r := range rs.Runs {
		if r.Workload == workload && r.Trace == trace {
			return r
		}
	}
	return nil
}

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares b against base a under spec's direction and bound. A
// row whose own window-to-window spread exceeds the bound on either side
// is unresolved: the benchmark cannot tell such a change from noise.
func judge(spec metricSpec, a, b metric) (ratio float64, verdict string) {
	if a.Value != 0 {
		ratio = b.Value / a.Value
	}
	if a.Spread > spec.Bound || b.Spread > spec.Bound {
		return ratio, verdictUnresolved
	}
	worse := ratio - 1
	if spec.Better == "higher" {
		worse = 1 - ratio
	}
	if worse > spec.Bound {
		return ratio, verdictRegressed
	}
	return ratio, verdictOK
}

// compare prints one row per (workload, end-to-end metric) of two run
// sets and reports whether B passes: no regression and no failed request
// on either side.
func compare(w io.Writer, spec *benchSpec, a, b *runSet) (pass bool) {
	pass = true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tB/A\tbound\tverdict")
	for _, wl := range spec.Workloads {
		ra, rb := a.find(wl.Name, 0), b.find(wl.Name, 0)
		if ra == nil || rb == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\tmissing\n", wl.Name)
			pass = false
			continue
		}
		for _, side := range []*runResult{ra, rb} {
			if side.Failed > 0 {
				fmt.Fprintf(tw, "%s\terror_rate\t%d/%d failed\t\t\t0\t%s\n", wl.Name, side.Failed, side.Attempted, verdictRegressed)
				pass = false
			}
		}
		for _, m := range spec.EndToEnd {
			ratio, verdict := judge(m, ra.Metrics[m.Name], rb.Metrics[m.Name])
			if verdict == verdictRegressed {
				pass = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%.3f\t%s %.0f%%\t%s\n", wl.Name, m.Name,
				ra.Metrics[m.Name].Value, m.Unit, rb.Metrics[m.Name].Value, m.Unit, ratio, m.Better, m.Bound*100, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return false
	}
	return pass
}
