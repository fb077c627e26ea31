// Command benchmark is the repository's benchmark: four end-to-end
// workloads driven over loopback against the real matchd and router
// binaries, and a traced in-process ladder that times each layer's public
// entry point. README.md in this directory explains every metric.
//
// One run of one workload (what BENCHMARK.json's command does):
//
//	bash benchmark/run.sh --workload single_toy --seed 1 --seconds 9 --trace 0
//
// Every workload in both modes into one file, and comparing two files:
//
//	bash benchmark/run.sh -all -seed 1 -out A.json
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: single_toy, batch_toy, scale_uncached or fleet_cached")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 0, "length of the measured phase (0 = BENCHMARK.json's run_seconds)")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics (writes "+buildDir+"/out/trace-<workload>.json)")
		all     = flag.Bool("all", false, "run every workload in both modes and write a run set to -out")
		out     = flag.String("out", "", "with -all: the run-set file to write")
		quick   = flag.Bool("quick", false, "small corpora and query sets: a smoke test, not a measurement")
		cmp     = flag.Bool("compare", false, "compare two run sets, A.json B.json, under BENCHMARK.json's bounds")
	)
	flag.Parse()
	code, err := run(*name, *seed, *seconds, *trace, *all, *out, *quick, *cmp, flag.Args())
	stopAllChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(name string, seed uint64, seconds, trace int, all bool, out string, quick, cmp bool, args []string) (code int, err error) {
	// A panic must not leave servers behind.
	defer func() {
		if r := recover(); r != nil {
			stopAllChildren()
			panic(r)
		}
	}()
	killChildrenOnSignal()
	// The load model is sized for two cores: two clients, two procs.
	runtime.GOMAXPROCS(clients)

	root, err := repoRoot()
	if err != nil {
		return 2, err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return 2, err
	}
	if cmp {
		if len(args) != 2 {
			return 2, fmt.Errorf("-compare takes two run-set files")
		}
		a, err := readRunSet(args[0])
		if err != nil {
			return 2, err
		}
		b, err := readRunSet(args[1])
		if err != nil {
			return 2, err
		}
		if !compare(os.Stdout, spec, a, b) {
			return 1, nil
		}
		return 0, nil
	}

	opt := options{Seed: seed, Seconds: seconds, Trace: trace, Sizes: fullSizes}
	if quick {
		opt.Sizes = quickSizes
	}
	if opt.Seconds <= 0 {
		opt.Seconds = spec.RunSeconds
	}
	if all {
		if out == "" {
			return 2, fmt.Errorf("-all needs -out FILE")
		}
		rs := &runSet{Env: readEnvironment(root), Seed: seed, Quick: quick}
		for _, w := range workloads {
			for _, tr := range []int{0, 1} {
				opt.Trace = tr
				res, err := runWorkload(w, root, spec, opt)
				if err != nil {
					return 1, err
				}
				report(res)
				rs.Runs = append(rs.Runs, res)
			}
		}
		b, err := json.MarshalIndent(rs, "", "  ")
		if err != nil {
			return 1, err
		}
		return 0, os.WriteFile(out, append(b, '\n'), 0o644)
	}

	w := workloadByName(name)
	if w == nil {
		return 2, fmt.Errorf("unknown -workload %q", name)
	}
	res, err := runWorkload(w, root, spec, opt)
	if err != nil {
		return 1, err
	}
	report(res)
	// The contract line: last on standard output, exactly these keys.
	type contractMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]contractMetric{}}
	for n, m := range res.Metrics {
		line.Metrics[n] = contractMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(b))
	return 0, nil
}

// report prints a run for people, on standard error.
func report(r *runResult) {
	fmt.Fprintf(os.Stderr, "%s seed=%d trace=%d: %d attempted, %d failed\n  corpus_sha  %s\n  answers_sha %s\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.CorpusSHA, r.AnswersSHA)
	for _, n := range sortedNames(r.Metrics) {
		m := r.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %-6s", n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(os.Stderr, " %s.spread %.3f (n=%d)", n, m.Spread, m.N)
		}
		fmt.Fprintln(os.Stderr)
	}
}
