// Command loadgen replays a mixed query workload against a running
// matchd at a target QPS and writes a latency/error report.
//
// The workload is derived from snapshot files — the same artifacts the
// target server serves — so it mixes the three query classes the
// matcher distinguishes (exact dictionary hits, one-edit typos,
// concatenated span-fuzzy spans) plus background noise, on whatever
// dictionary is actually deployed. Snapshots carrying an attribute
// vocabulary additionally generate an `attributes` class that the
// runner sends at POST /v2/match (gate it with -require-class):
//
//	loadgen -url http://127.0.0.1:8080 -snapshot movies.snap \
//	    -qps 200 -duration 10s -report load.json
//
// Against a multi-domain matchd, repeat -snapshot with name=path pairs;
// the workload then routes each domain's queries at it explicitly and
// flips a fraction into federated fan-outs (domains: ["*"]), and the
// report breaks latency down per domain:
//
//	loadgen -url ... -snapshot movies=movies.snap -snapshot cameras=cameras.snap
//
// The report carries request counts, error counts, p50/p90/p95/p99
// latency, and per-class (plus per-domain, when routed) percentile
// breakdowns. Optional gates make it a CI smoke check: -fail-on-error
// exits non-zero on any transport error or non-200 response, and
// -max-p99 exits non-zero when the overall p99 — or, in a mixed-domain
// run, any single domain's p99 — exceeds the bound:
//
//	loadgen -url ... -snapshot ... -qps 50 -duration 5s \
//	    -report load.json -fail-on-error -max-p99 250ms
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"websyn"
	"websyn/internal/loadtest"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var snapshots, requireClasses multiFlag
	flag.Var(&snapshots, "snapshot", "snapshot to derive the workload from: a path, or name=path (repeatable, mixed-domain); required")
	flag.Var(&requireClasses, "require-class", "exit non-zero unless this query class completed at least one request (repeatable); use `attributes` to gate the /v2 rewrite surface")
	var (
		url         = flag.String("url", "http://127.0.0.1:8080", "target server base URL")
		qps         = flag.Float64("qps", 200, "target request rate (0 = unpaced)")
		duration    = flag.Duration("duration", 10*time.Second, "how long to run")
		concurrency = flag.Int("concurrency", 8, "worker count")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-request timeout")
		seed        = flag.Uint64("seed", 1, "workload shuffle seed")
		reportPath  = flag.String("report", "", "write the JSON report to this file (default: stdout only)")
		failOnError = flag.Bool("fail-on-error", false, "exit non-zero on any transport error or non-200 response")
		maxP99      = flag.Duration("max-p99", 0, "exit non-zero when the overall or any per-domain p99 latency exceeds this (0 = no bound)")
		minRequests = flag.Uint64("min-requests", 0, "exit non-zero when fewer requests complete (0 = no floor); catches a server that hangs mid-run without erroring")
		summaryMD   = flag.String("summary-md", "", "append a markdown summary table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	)
	flag.Parse()
	if len(snapshots) == 0 {
		log.Fatal("loadgen: -snapshot is required (the workload is derived from it)")
	}
	if *concurrency <= 0 {
		log.Fatalf("loadgen: bad -concurrency %d (want a positive integer)", *concurrency)
	}

	w, desc, err := buildWorkload(snapshots, *seed)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("workload: %d queries from %s, targeting %s at %g qps for %v",
		len(w.Queries), desc, *url, *qps, *duration)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	rep, err := loadtest.Run(ctx, w, loadtest.Options{
		URL:         *url,
		QPS:         *qps,
		Duration:    *duration,
		Concurrency: *concurrency,
		Timeout:     *timeout,
	})
	if err != nil {
		log.Fatal(err)
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
	for _, line := range breakdownLines("class", rep.LatencyByClass) {
		log.Print(line)
	}
	for _, line := range breakdownLines("domain", rep.LatencyByDomain) {
		log.Print(line)
	}
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, append(out, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *reportPath)
	}
	if *summaryMD != "" {
		f, err := os.OpenFile(*summaryMD, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := f.WriteString(summaryMarkdown(rep)); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("appended summary to %s", *summaryMD)
	}

	if gateReport(rep, w, requireClasses, *failOnError, *minRequests, *maxP99) {
		os.Exit(1)
	}
}

// gateReport applies the CI gates to the report, logging each violation.
// Returns true when any gate failed.
func gateReport(rep *loadtest.Report, w *loadtest.Workload, requireClasses []string, failOnError bool, minRequests uint64, maxP99 time.Duration) bool {
	failed := false
	if failOnError && rep.Failed() {
		log.Printf("FAIL: %d transport errors, %d non-200 responses", rep.Errors, rep.Non200)
		failed = true
	}
	if completed := rep.Requests - rep.Errors; minRequests > 0 && completed < minRequests {
		log.Printf("FAIL: only %d requests completed, floor is %d", completed, minRequests)
		failed = true
	}
	// A workload that silently stopped generating a class (e.g. a
	// vocabulary-less snapshot producing no attributes queries) would
	// otherwise pass every latency gate while covering nothing.
	for _, c := range requireClasses {
		if rep.ByClass[c] == 0 {
			log.Printf("FAIL: class %s completed no requests", c)
			failed = true
		}
	}
	if maxP99 > 0 {
		// A latency bound over zero completed requests would vacuously
		// pass (empty percentiles are 0) — a dead target must not look
		// like a fast one.
		bound := float64(maxP99) / float64(time.Millisecond)
		if rep.Requests == rep.Errors {
			log.Printf("FAIL: no request completed, p99 bound %v unmeasurable", maxP99)
			failed = true
		} else if rep.Latency.P99 > bound {
			log.Printf("FAIL: p99 %.2fms exceeds bound %v", rep.Latency.P99, maxP99)
			failed = true
		}
		// A mixed-domain run also gates every domain individually, so a
		// slow vertical cannot hide behind a fast one's volume — and a
		// domain whose requests all failed has no latency samples at
		// all, which must read as a dead vertical, not a fast one.
		for _, d := range sortedKeys(workloadDomains(w)) {
			p, ok := rep.LatencyByDomain[d]
			if !ok {
				log.Printf("FAIL: domain %s completed no requests, p99 bound %v unmeasurable", d, maxP99)
				failed = true
				continue
			}
			if p.P99 > bound {
				log.Printf("FAIL: domain %s p99 %.2fms exceeds bound %v", d, p.P99, maxP99)
				failed = true
			}
		}
	}
	return failed
}

// buildWorkload loads the snapshot flags into a workload: one bare path
// is the legacy domainless workload, name=path pairs build the
// mixed-domain one. The returned description names the sources for the
// startup log line.
func buildWorkload(specs []string, seed uint64) (*loadtest.Workload, string, error) {
	named := make(map[string]*websyn.Snapshot)
	var bare []string
	for _, spec := range specs {
		if name, path, ok := strings.Cut(spec, "="); ok {
			name, path = strings.TrimSpace(name), strings.TrimSpace(path)
			if name == "" || path == "" {
				return nil, "", fmt.Errorf("loadgen: bad snapshot spec %q (want name=path)", spec)
			}
			if _, dup := named[name]; dup {
				return nil, "", fmt.Errorf("loadgen: domain %q given twice", name)
			}
			snap, err := websyn.ReadSnapshotFile(path)
			if err != nil {
				return nil, "", err
			}
			named[name] = snap
		} else {
			bare = append(bare, spec)
		}
	}
	if len(bare) > 0 {
		if len(bare) > 1 || len(named) > 0 {
			return nil, "", fmt.Errorf("loadgen: multiple snapshots need domain names (-snapshot name=path)")
		}
		snap, err := websyn.ReadSnapshotFile(bare[0])
		if err != nil {
			return nil, "", err
		}
		w, err := loadtest.FromSnapshot(snap, seed)
		return w, fmt.Sprintf("%s (%s)", bare[0], snap.Dataset), err
	}
	w, err := loadtest.FromSnapshots(named, seed)
	if err != nil {
		return nil, "", err
	}
	return w, fmt.Sprintf("%d domains (%s)", len(named), strings.Join(sortedKeys(named), ", ")), nil
}

// workloadDomains returns the set of domains the workload routes at
// (including the federated "*" bucket); empty for legacy domainless
// workloads.
func workloadDomains(w *loadtest.Workload) map[string]bool {
	out := map[string]bool{}
	for _, q := range w.Queries {
		if q.Domain != "" {
			out[q.Domain] = true
		}
	}
	return out
}

// breakdownLines renders a percentile breakdown for the log, keys
// sorted for a stable read.
func breakdownLines(kind string, m map[string]loadtest.Percentiles) []string {
	out := make([]string, 0, len(m))
	for _, k := range sortedKeys(m) {
		p := m[k]
		out = append(out, fmt.Sprintf("%-6s %-12s p50 %8.2fms  p95 %8.2fms  p99 %8.2fms  max %8.2fms",
			kind, k, p.P50, p.P95, p.P99, p.Max))
	}
	return out
}

// summaryMarkdown renders the report as a GitHub job-summary fragment:
// a headline table plus per-class and per-domain latency rows.
func summaryMarkdown(rep *loadtest.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Load report — %s\n\n", rep.URL)
	fmt.Fprintf(&b, "| Requests | Errors | Non-200 | QPS | p50 | p95 | p99 | max |\n")
	fmt.Fprintf(&b, "|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	fmt.Fprintf(&b, "| %d | %d | %d | %.0f | %.2fms | %.2fms | %.2fms | %.2fms |\n\n",
		rep.Requests, rep.Errors, rep.Non200, rep.AchievedQPS,
		rep.Latency.P50, rep.Latency.P95, rep.Latency.P99, rep.Latency.Max)
	writeBreakdown := func(title string, counts map[string]uint64, lats map[string]loadtest.Percentiles) {
		if len(lats) == 0 {
			return
		}
		fmt.Fprintf(&b, "| %s | requests | p50 | p95 | p99 | max |\n", title)
		fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---:|\n")
		for _, k := range sortedKeys(lats) {
			p := lats[k]
			fmt.Fprintf(&b, "| %s | %d | %.2fms | %.2fms | %.2fms | %.2fms |\n",
				k, counts[k], p.P50, p.P95, p.P99, p.Max)
		}
		b.WriteString("\n")
	}
	writeBreakdown("Class", rep.ByClass, rep.LatencyByClass)
	writeBreakdown("Domain", rep.ByDomain, rep.LatencyByDomain)
	return b.String()
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
