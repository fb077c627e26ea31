package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// metric is one reported number. Spread is (max-min)/median over the
// windows or repetitions the value is the median of; N is the smallest
// number of samples any of them had (POSTs, for a latency).
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
	N      int     `json:"n,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Trace      int               `json:"trace"`
	Seconds    int               `json:"seconds"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	CorpusSHA  string            `json:"corpus_sha"`
	AnswersSHA string            `json:"answers_sha"`
	Metrics    map[string]metric `json:"metrics"`
}

// options are a run's inputs.
type options struct {
	Seed    uint64
	Seconds int
	Trace   int
	Sizes   sizes
}

// pickers returns each client's request sequence for the measured phase.
func pickers(p *prepared, seed uint64) func(client int) picker {
	r := newRNG(seed).fork("traffic/" + p.W.Name)
	if p.W.Zipf {
		z := newZipf(len(p.Requests), 1.0)
		return func(c int) picker { return &zipfPick{z, r.fork(fmt.Sprint("client", c))} }
	}
	order := make([]int, len(p.Requests))
	for i := range order {
		order[i] = i
	}
	r.shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return func(c int) picker { return &cycle{order: order, pos: c, step: clients} }
}

// runWorkload runs w once, tracing off (the end-to-end metrics) or on
// (the per-layer metrics), and reports exactly the metrics BENCHMARK.json
// declares for that mode, with its units.
func runWorkload(w *workload, root string, spec *benchSpec, opt options) (*runResult, error) {
	bin, buildTook, err := buildServers(root)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: w.Name, Seed: opt.Seed, Trace: opt.Trace, Seconds: opt.Seconds, Metrics: map[string]metric{}}
	if opt.Trace != 0 {
		err = runTraced(w, root, bin, opt, buildTook, res)
	} else {
		err = runEndToEnd(w, root, bin, opt, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	declared := spec.EndToEnd
	if opt.Trace != 0 {
		declared = spec.PerLayer
	}
	if len(res.Metrics) != len(declared) {
		return nil, fmt.Errorf("%s: measured %d metrics, BENCHMARK.json declares %d for trace %d", w.Name, len(res.Metrics), len(declared), opt.Trace)
	}
	for _, d := range declared {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s is declared in BENCHMARK.json but was not measured", w.Name, d.Name)
		}
		m.Unit = d.Unit
		res.Metrics[d.Name] = m
	}
	return res, nil
}

func runEndToEnd(w *workload, root, bin string, opt options, res *runResult) error {
	var p *prepared
	var setups, boots []float64
	for rep := 0; rep < opt.Sizes.SetupReps; rep++ {
		if p != nil {
			p.teardown()
		}
		var err error
		if p, err = setup(w, root, bin, opt.Seed, opt.Sizes, false); err != nil {
			return err
		}
		setups, boots = append(setups, p.SetupS), append(boots, p.BootS)
		fmt.Fprintf(os.Stderr, "%s: set-up %d/%d in %.2fs (boot %.3fs)\n", w.Name, rep+1, opt.Sizes.SetupReps, p.SetupS, p.BootS)
	}
	defer p.teardown()
	res.CorpusSHA, res.AnswersSHA = p.Corpus.SHA, p.Answers.sha()
	// The corpus is only needed to set up; keeping ~200 MB of dictionary
	// live would put the harness's collector on the servers' cores.
	p.Corpus = nil
	runtime.GC()
	// What is left is small, and the harness shares its two cores with the
	// servers: collecting a quarter as often while measuring took the
	// run-to-run range of single_toy's p99 from 14% to 5%.
	defer debug.SetGCPercent(debug.SetGCPercent(400))

	dur := time.Duration(opt.Seconds) * time.Second
	lr, err := runLoad(p, pickers(p, opt.Seed), dur)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = lr.Attempted, lr.Failed

	var qps, p50, p99, cpu []float64
	minPosts := int(^uint(0) >> 1)
	for i := 0; i < windows; i++ {
		from, to := dur*time.Duration(i)/windows, dur*time.Duration(i+1)/windows
		ws := window(p, lr.Samples, from, to, lr.CPU[i+1]-lr.CPU[i])
		if ws.Posts < opt.Sizes.MinWindow {
			return fmt.Errorf("%s: window %d completed %d requests, fewer than %d: not reporting numbers", w.Name, i+1, ws.Posts, opt.Sizes.MinWindow)
		}
		minPosts = min(minPosts, ws.Posts)
		qps, p50, p99, cpu = append(qps, ws.QPS), append(p50, ws.P50), append(p99, ws.P99), append(cpu, ws.CPUus)
	}
	rss := 0.0
	for _, c := range p.Servers {
		mb, err := c.peakRSSMB()
		if err != nil {
			return fmt.Errorf("%s: reading peak RSS of %s: %w", w.Name, c.Name, err)
		}
		rss += mb
	}
	set := func(name string, v []float64, n int) {
		m, s := medianSpread(v)
		res.Metrics[name] = metric{Value: m, Spread: s, N: n}
	}
	set("setup_s", setups, len(setups))
	set("boot_s", boots, len(boots))
	set("throughput_qps", qps, minPosts)
	set("latency_p50_ms", p50, minPosts)
	set("latency_p99_ms", p99, minPosts)
	set("cpu_us_per_query", cpu, minPosts)
	set("rss_mb", []float64{rss}, 1)
	return nil
}

func runTraced(w *workload, root, bin string, opt options, buildTook time.Duration, res *runResult) error {
	p, err := setup(w, root, bin, opt.Seed, opt.Sizes, true)
	if err != nil {
		return err
	}
	defer p.teardown()
	res.CorpusSHA, res.AnswersSHA = p.Corpus.SHA, p.Answers.sha()

	be, err := openBackend(w, p.Corpus)
	if err != nil {
		return err
	}
	l := &ladder{t: &tracer{t0: time.Now()}, p: p, be: be, queries: ladderQueries(p.Answers.Queries, opt.Sizes.LadderQueries), out: map[string]float64{}}
	if err := l.run(); err != nil {
		return err
	}
	out := l.out
	out["bench.build_s"] = buildTook.Seconds()

	// The end-to-end half of the traced run: the net/http floor, then one
	// window of the workload's own traffic with the servers' counters
	// read on either side of it.
	floor, err := httpFloor(p.Target)
	if err != nil {
		return err
	}
	out["bench.http_floor_us"] = floor
	before, err := readCounters(p)
	if err != nil {
		return err
	}
	lr, err := runLoad(p, pickers(p, opt.Seed), time.Duration(opt.Seconds)*time.Second/windows)
	if err != nil {
		return err
	}
	after, err := readCounters(p)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = lr.Attempted, lr.Failed
	counterMetrics(before, after, out)
	// Last, because on a caching replica it leaves keys behind that the
	// router would never have sent there.
	if err := l.wireRTT(); err != nil {
		return err
	}

	byClass := map[string][]float64{}
	var all []float64
	for _, s := range lr.Samples {
		ms := float64(s.Lat) / 1e6
		all = append(all, ms)
		if items := p.Requests[s.Req].Items; len(items) == 1 {
			c := p.Answers.Queries[items[0]].Class
			byClass[c] = append(byClass[c], ms)
		}
	}
	for _, c := range classes {
		out["e2e.p50_ms."+c] = percentile(byClass[c], 0.5)
	}
	// What the ladder does not explain of a request: end-to-end p50 less
	// the client+net/http floor less the top in-process rung.
	top := out["serve.http_v1_ns"]
	switch {
	case w.Fleet:
		top = out["fleet.wire_rtt_ns"]
	case w.Batch > 1:
		top = out["serve.http_batch64_ns"] * float64(w.Batch)
	}
	out["bench.unattributed_us"] = percentile(all, 0.5)*1e3 - floor - top/1e3

	dir := filepath.Join(root, buildDir, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := l.t.writeFile(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
		return err
	}
	for name, v := range out {
		res.Metrics[name] = metric{Value: v}
	}
	return nil
}

// ladderQueries picks the queries every rung replays: the first n — they
// are in seeded random order, so that is the traffic's own class mix —
// topped up so that even a rare class (noise is ~1% of toy traffic) has a
// median worth the name.
func ladderQueries(qs []query, n int) []int {
	const minPerClass = 8
	n = min(n, len(qs))
	var out []int
	have := map[string]int{}
	for i, q := range qs {
		if i < n || have[q.Class] < minPerClass {
			out = append(out, i)
			have[q.Class]++
		}
	}
	return out
}

// httpFloor is the p50, in µs, of GET /healthz from the same clients
// the load uses, all busy at once as they are under load: what loopback,
// net/http and the client cost before any handler of ours runs.
func httpFloor(target string) (float64, error) {
	var mu sync.Mutex
	var us []float64
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			mine := make([]float64, 0, 1000)
			for i := 0; i < cap(mine); i++ {
				t0 := time.Now()
				resp, err := client.Get(target + "/healthz")
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("GET /healthz: status %d", resp.StatusCode)
					}
				}
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				mine = append(mine, float64(time.Since(t0))/1e3)
			}
			mu.Lock()
			us = append(us, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return percentile(us, 0.5), nil
}

// sortedNames returns m's keys in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
