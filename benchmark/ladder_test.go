package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"websyn"
)

// The in-process ladder on movies only: every rung that needs no server
// reports a number, the spans carry their rung's parent, and the program
// answers every exact query with its source entity.
func TestLadderOnMovies(t *testing.T) {
	ds, err := websyn.ParseDataset("movies")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := websyn.MineSnapshot(ds, websyn.DefaultMinerConfig(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := &corpus{Tier: tierToy, Domains: []*domainCorpus{newDomainCorpus("movies", snap)}}
	if err := c.checkIntents(); err != nil {
		t.Fatal(err)
	}
	if err := c.write(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	w := workloadByName("single_toy")
	be, err := openBackend(w, c)
	if err != nil {
		t.Fatal(err)
	}
	qs := genQueries(w, c, 1, quickSizes)
	p := &prepared{W: w, Corpus: c, Answers: expectedAnswers(be, qs)}
	l := &ladder{t: &tracer{t0: time.Now()}, p: p, be: be, out: map[string]float64{}}
	for i := range qs {
		l.queries = append(l.queries, i)
	}
	if err := l.run(); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{
		"textnorm.tokenize_ns", "match.segment_ns", "match.fuzzy_lookup_ns",
		"match.engine_ns.exact", "match.engine_ns.typo", "match.engine_ns.span-fuzzy", "match.engine_ns.noise",
		"match.index_strings", "match.index_grams", "match.index_postings",
		"rewrite.tokens_ns", "rewrite.predicates_per_query",
		"serve.doview_nocache_ns", "serve.doview_hit_ns", "serve.doview_miss_ns",
		"serve.registry_routed_ns", "serve.registry_federated_ns",
		"serve.http_v1_ns", "serve.http_v2_ns", "serve.http_batch64_ns", "serve.http_v1_allocs", "serve.http_v1_resp_bytes",
		"serve.snapshot_read_ns", "serve.snapshot_mmap_ns", "serve.prepare_ns", "serve.snapshot_bytes",
		"wire.encode_request_ns", "wire.decode_request_ns", "wire.encode_result_ns", "wire.decode_result_ns", "wire.result_bytes",
		"bench.trace_overhead_ns",
	} {
		if l.out[name] <= 0 {
			t.Errorf("%s = %v, want a positive measurement", name, l.out[name])
		}
	}
	if r := l.out["match.recall.exact"]; r != 1 {
		t.Errorf("match.recall.exact = %v: an exact query does not resolve to the entity it was generated from", r)
	}
	// A cache hit must be far cheaper than the engine it skips: if not,
	// the hit and miss rungs are measuring the same thing.
	if l.out["serve.doview_hit_ns"]*2 > l.out["serve.doview_miss_ns"] {
		t.Errorf("hit %v ns vs miss %v ns: the cached rung is not hitting", l.out["serve.doview_hit_ns"], l.out["serve.doview_miss_ns"])
	}

	parents := map[string]string{}
	for _, s := range l.t.spans {
		if s.End < s.Start {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
		parents[s.Name] = s.Parent
	}
	for child, parent := range map[string]string{
		"textnorm.tokenize": "match.engine", "match.engine.exact": "serve.doview_nocache",
		"serve.doview_nocache": "serve.registry_routed", "serve.registry_routed": "serve.http_v1", "serve.http_v1": "",
	} {
		if got, ok := parents[child]; !ok || got != parent {
			t.Errorf("span %s has parent %q, want %q", child, got, parent)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := l.t.writeFile(path); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || !strings.Contains(string(b), `"query_id"`) {
		t.Errorf("trace file unreadable or empty: %v", err)
	}
}

// What the harness prints is what BENCHMARK.json declares.
func TestSpecMatchesTheHarness(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	want := map[string]bool{"setup_s": true, "throughput_qps": true, "latency_p50_ms": true, "latency_p99_ms": true, "cpu_us_per_query": true, "boot_s": true, "rss_mb": true}
	for _, m := range spec.EndToEnd {
		if !want[m.Name] {
			t.Errorf("end-to-end metric %s is declared but never measured", m.Name)
		}
		delete(want, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for name := range want {
		t.Errorf("end-to-end metric %s is measured but not declared", name)
	}
}
