// Command benchrun runs the serving-path benchmarks and records the
// results as a machine-readable trajectory file, optionally gating on a
// committed baseline — the regression tripwire behind CI's bench-gate
// job (see docs/PERFORMANCE.md).
//
// Usage:
//
//	benchrun [-bench regex] [-count 3] [-pkg .,./internal/serve,./internal/match]
//	         [-out bench/BENCH_<date>.json]
//	         [-baseline BENCH_baseline.json] [-threshold 0.25]
//	         [-write-baseline path]
//
// benchrun shells out to `go test -bench` (so it measures exactly what a
// developer would), parses the standard benchmark output, keeps the
// fastest of -count runs per benchmark (the low-noise estimator), and
// writes a JSON file named after today's date — committing one per
// optimization PR leaves a performance trajectory in the repo history.
//
// With -baseline it compares ns/op against the committed baseline and
// exits non-zero when any gated benchmark regressed by more than
// -threshold (fractional; 0.25 = 25%). To refresh the baseline after an
// intentional change, run:
//
//	go run ./cmd/benchrun -count 5 -write-baseline BENCH_baseline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// GatedBenchmarks is the default benchmark set: the latency-critical
// serving path (the unified engine across exact/typo/span-fuzzy queries
// through Server.DoView, a 256-query POST /v1/match through the handler
// and its batch pool, the snapshot decoder in copy and mmap alias mode)
// plus the concurrency suite (parallel single-query DoView, parallel
// federation, and the contended-cache microbenchmark) and the typo
// corrector's probe and index build. Whole-string fuzzy lookup is not
// here: the end-to-end benchmark's match.fuzzy_lookup_ns times it.
// BenchmarkServeMatchParallel's cached sub-benchmark, BenchmarkEngineMatch
// and the BenchmarkTypoCorrect probe rows carry zero-alloc baselines the
// gate treats as absolute invariants.
const GatedBenchmarks = "BenchmarkServeMatchParallel|BenchmarkServeBatch|BenchmarkEngineMatch|BenchmarkSnapshotOpen|BenchmarkRegistryFederateParallel|BenchmarkCacheContended|BenchmarkTypoCorrect|BenchmarkTypoIndexBuild"

// GatedPackages is the default -pkg value: the root serving facade,
// internal/serve (home of the contended-cache microbenchmark) and
// internal/match (the typo corrector, whose probe is unexported).
const GatedPackages = ".,./internal/serve,./internal/match"

// Result is one benchmark's aggregated measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
}

// File is the BENCH_*.json layout.
type File struct {
	Schema     int               `json:"schema"`
	Generated  string            `json:"generated"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	BenchRegex string            `json:"bench_regex"`
	Count      int               `json:"count"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	var (
		bench     = flag.String("bench", GatedBenchmarks, "benchmark regex passed to go test -bench")
		count     = flag.Int("count", 3, "runs per benchmark; the fastest is recorded")
		pkg       = flag.String("pkg", GatedPackages, "comma-separated packages to benchmark")
		out       = flag.String("out", "", "trajectory file to write (default bench/BENCH_<date>.json; empty string with -write-baseline skips it)")
		baseline  = flag.String("baseline", "", "baseline file to gate against (empty = no gate)")
		threshold = flag.Float64("threshold", 0.25, "maximum tolerated fractional ns/op regression")
		writeBase = flag.String("write-baseline", "", "write this run as the new baseline to the given path")
		timeout   = flag.Duration("timeout", 30*time.Minute, "go test timeout")
	)
	flag.Parse()

	results, err := run(*bench, *pkg, *count, *timeout)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmarks matched %q in %s", *bench, *pkg))
	}

	f := &File{
		Schema:     1,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		BenchRegex: *bench,
		Count:      *count,
		Benchmarks: results,
	}

	outPath := *out
	if outPath == "" && *writeBase == "" {
		// Dated trajectory reports live under bench/ (gitignored), so
		// repeated runs never litter the repo root with stale files.
		outPath = filepath.Join("bench", "BENCH_"+time.Now().UTC().Format("2006-01-02")+".json")
	}
	for _, path := range []string{outPath, *writeBase} {
		if path == "" {
			continue
		}
		if dir := filepath.Dir(path); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
		if err := writeFile(path, f); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchrun: wrote %s (%d benchmarks)\n", path, len(results))
	}

	if *baseline != "" {
		if err := gate(*baseline, f, *threshold); err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
	os.Exit(2)
}

// benchLine matches one `go test -bench -benchmem` result line, e.g.
//
//	BenchmarkEngineMatch/typo-8  1000000  1191 ns/op  0 B/op  0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op(.*)$`)

// stripCPUSuffix removes go test's "-<GOMAXPROCS>" benchmark-name
// suffix. go test only appends it when GOMAXPROCS > 1, and benchmark
// names can legitimately end in "-<n>" (CacheContended/shards-1), so only
// the exact current GOMAXPROCS value is stripped — names then agree
// across machines with different core counts.
func stripCPUSuffix(name string) string {
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		name = strings.TrimSuffix(name, fmt.Sprintf("-%d", procs))
	}
	return name
}

// run executes the benchmarks and aggregates per-benchmark minima. pkg
// is comma-separated; all packages go into one `go test` invocation, so
// benchmark names must stay unique across them.
func run(bench, pkg string, count int, timeout time.Duration) (map[string]Result, error) {
	args := []string{
		"test", "-run", "^$", "-bench", bench, "-benchmem",
		"-count", strconv.Itoa(count), "-timeout", timeout.String(),
	}
	for _, p := range strings.Split(pkg, ",") {
		if p = strings.TrimSpace(p); p != "" {
			args = append(args, p)
		}
	}
	fmt.Fprintf(os.Stderr, "benchrun: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	// Echo the raw benchmark output so CI logs keep the full detail.
	os.Stderr.Write(outBytes)
	if err != nil {
		return nil, fmt.Errorf("go test -bench failed: %w", err)
	}

	results := make(map[string]Result)
	for _, line := range strings.Split(string(outBytes), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := stripCPUSuffix(m[1])
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		r := Result{NsPerOp: ns, Samples: 1}
		// Optional -benchmem and custom-metric columns.
		rest := strings.Fields(m[3])
		for i := 0; i+1 < len(rest); i += 2 {
			v, err := strconv.ParseFloat(rest[i], 64)
			if err != nil {
				continue
			}
			switch rest[i+1] {
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			}
		}
		if prev, ok := results[name]; ok {
			r.Samples = prev.Samples + 1
			if prev.NsPerOp < r.NsPerOp {
				r.NsPerOp = prev.NsPerOp
			}
			if prev.BytesPerOp < r.BytesPerOp {
				r.BytesPerOp = prev.BytesPerOp
			}
			if prev.AllocsPerOp < r.AllocsPerOp {
				r.AllocsPerOp = prev.AllocsPerOp
			}
		}
		results[name] = r
	}
	return results, nil
}

func writeFile(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gate compares this run against the baseline and reports every gated
// benchmark's delta. It fails on a >threshold regression in ns/op or
// allocs/op and on gated benchmarks that disappeared from the run.
// allocs/op is hardware-independent, so it stays meaningful even when
// the baseline was recorded on a different machine than the runner;
// ns/op catches regressions allocation counts cannot see.
func gate(baselinePath string, current *File, threshold float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base File
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var regressions, missing []string
	fmt.Fprintf(os.Stderr, "benchrun: gating %d benchmarks against %s (threshold %+.0f%%)\n",
		len(names), baselinePath, threshold*100)
	for _, name := range names {
		b := base.Benchmarks[name]
		cur, ok := current.Benchmarks[name]
		if !ok {
			missing = append(missing, name)
			fmt.Fprintf(os.Stderr, "  MISSING  %-45s baseline %.0f ns/op, not in this run\n", name, b.NsPerOp)
			continue
		}
		delta := cur.NsPerOp/b.NsPerOp - 1
		allocDelta := 0.0
		if b.AllocsPerOp > 0 {
			allocDelta = cur.AllocsPerOp/b.AllocsPerOp - 1
		} else if cur.AllocsPerOp > 0 {
			// A zero-alloc baseline is an absolute invariant, not a ratio:
			// any allocation on that path is a regression.
			allocDelta = math.Inf(1)
		}
		status := "ok"
		if delta > threshold || allocDelta > threshold {
			status = "REGRESSED"
			regressions = append(regressions, name)
		}
		fmt.Fprintf(os.Stderr, "  %-10s%-45s %10.0f -> %10.0f ns/op (%+6.1f%%)  %6.0f -> %6.0f allocs/op (%+6.1f%%)\n",
			status, name, b.NsPerOp, cur.NsPerOp, delta*100,
			b.AllocsPerOp, cur.AllocsPerOp, allocDelta*100)
	}
	if len(regressions) > 0 || len(missing) > 0 {
		return fmt.Errorf("bench gate failed: %d regression(s) %v, %d missing %v — if intentional, refresh the baseline (see docs/PERFORMANCE.md)",
			len(regressions), regressions, len(missing), missing)
	}
	fmt.Fprintln(os.Stderr, "benchrun: bench gate passed")
	return nil
}
