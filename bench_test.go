package websyn

// The benchmark harness: one testing.B benchmark per table and figure in
// the paper's evaluation section, plus ablations and pipeline
// micro-benchmarks. Each experiment benchmark REGENERATES its artifact and
// reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// both times the pipeline and reprints the paper's evaluation.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"websyn/internal/eval"
)

// benchMovies/benchCameras reuse the cached simulations from websyn_test.go.

// BenchmarkFigure2_IPCSweep regenerates Figure 2: the IPC threshold sweep
// on the movie data set. Reported metrics: coverage increase and precision
// at the curve's endpoints (β=10 and β=2).
func BenchmarkFigure2_IPCSweep(b *testing.B) {
	x := NewExperiments(movies(b), nil)
	var points []Fig2Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		points, err = x.Figure2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	first, last := points[0], points[len(points)-1]
	b.ReportMetric(first.Coverage*100, "cov%@β10")
	b.ReportMetric(first.Precision*100, "prec%@β10")
	b.ReportMetric(last.Coverage*100, "cov%@β2")
	b.ReportMetric(last.Precision*100, "prec%@β2")
}

// BenchmarkFigure3_ICRSweep regenerates Figure 3: the ICR sweep for IPC
// 2/4/6 on movies. Reported metrics: weighted precision at the γ=0.9 end
// of the β=4 series (the paper's featured curve).
func BenchmarkFigure3_ICRSweep(b *testing.B) {
	x := NewExperiments(movies(b), nil)
	var points []Fig3Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		points, err = x.Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, p := range points {
		if p.Beta == 4 && p.Gamma == 0.9 {
			b.ReportMetric(p.Weighted*100, "wprec%@β4γ.9")
		}
		if p.Beta == 4 && p.Gamma == 0.01 {
			b.ReportMetric(p.Weighted*100, "wprec%@β4γ.01")
		}
	}
}

// BenchmarkTable1_HitsAndExpansion regenerates Table I over both data sets.
// Reported metrics: the camera hit ratios — the paper's headline contrast
// (Us 87% vs Wiki 11.5% vs Walk 54%).
func BenchmarkTable1_HitsAndExpansion(b *testing.B) {
	x := NewExperiments(movies(b), cameras(b))
	cfg := DefaultTable1Config()
	var rows []Table1Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = x.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Dataset == "Cameras" {
			switch r.System {
			case "Us":
				b.ReportMetric(r.HitRatio*100, "cam-us-hit%")
				b.ReportMetric(r.Expansion*100, "cam-us-exp%")
			case "Wiki":
				b.ReportMetric(r.HitRatio*100, "cam-wiki-hit%")
			case "Walk(0.8)":
				b.ReportMetric(r.HitRatio*100, "cam-walk-hit%")
			}
		}
	}
}

// BenchmarkAblation_Measures contrasts IPC-only, ICR-only and combined
// selection (the design choice the paper motivates with Figure 1).
func BenchmarkAblation_Measures(b *testing.B) {
	sim := movies(b)
	results, err := sim.MineAll(MinerConfig{IPC: 1, ICR: 0})
	if err != nil {
		b.Fatal(err)
	}
	points := []struct {
		name string
		ipc  int
		icr  float64
	}{
		{"ipc-only", 4, 0},
		{"icr-only", 1, 0.1},
		{"both", 4, 0.1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pt := range points {
			o, err := eval.OutputFromResults(sim.Model, results, pt.name, pt.ipc, pt.icr)
			if err != nil {
				b.Fatal(err)
			}
			_ = eval.Precision(sim.Model, sim.Log, o)
			_ = eval.CoverageIncrease(sim.Model, sim.Log, o)
		}
	}
}

// BenchmarkAblation_SurrogateK sweeps the top-k surrogate cutoff — the
// paper's unstated constant, exercised as an ablation.
func BenchmarkAblation_SurrogateK(b *testing.B) {
	sim := movies(b)
	ks := []int{3, 5, 10, 15, 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range ks {
			sd, err := sim.SearchDataK(k)
			if err != nil {
				b.Fatal(err)
			}
			m, err := sim.NewMinerWith(sd, DefaultMinerConfig())
			if err != nil {
				b.Fatal(err)
			}
			_ = m.MineAll(sim.Catalog.Canonicals())
		}
	}
}

// BenchmarkAblation_LogVolume contrasts mining quality across log sizes —
// the "how much log does the method need" ablation.
func BenchmarkAblation_LogVolume(b *testing.B) {
	sizes := []int{5000, 25000, 100000}
	for i := 0; i < b.N; i++ {
		for _, n := range sizes {
			sim, err := NewSimulation(Options{Dataset: Movies, Impressions: n})
			if err != nil {
				b.Fatal(err)
			}
			results, err := sim.MineAll(DefaultMinerConfig())
			if err != nil {
				b.Fatal(err)
			}
			o, err := eval.OutputFromResults(sim.Model, results, "vol", 4, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 && n == sizes[len(sizes)-1] {
				b.ReportMetric(float64(o.Hits()), "hits@100k")
			}
		}
	}
}

// ---- Pipeline micro-benchmarks ----

// BenchmarkBuildSimulation times the full substrate build (movies, reduced
// log for a stable per-op cost).
func BenchmarkBuildSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := NewSimulation(Options{Dataset: Movies, Seed: uint64(i + 1), Impressions: 20000})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineSingle times one Mine call on the full movie substrate.
func BenchmarkMineSingle(b *testing.B) {
	sim := movies(b)
	m, err := sim.NewMiner(DefaultMinerConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Mine("Indiana Jones and the Kingdom of the Crystal Skull")
	}
}

// BenchmarkMineAllMovies times mining the whole D1 input set.
func BenchmarkMineAllMovies(b *testing.B) {
	sim := movies(b)
	m, err := sim.NewMiner(DefaultMinerConfig())
	if err != nil {
		b.Fatal(err)
	}
	inputs := sim.Catalog.Canonicals()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.MineAll(inputs)
	}
}

// BenchmarkMineAllCameras times mining the whole D2 input set (882 inputs
// over a 400k-impression log).
func BenchmarkMineAllCameras(b *testing.B) {
	sim := cameras(b)
	m, err := sim.NewMiner(DefaultMinerConfig())
	if err != nil {
		b.Fatal(err)
	}
	inputs := sim.Catalog.Canonicals()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.MineAll(inputs)
	}
}

// BenchmarkWalkBaseline times the random-walk baseline over all 100 movie
// canonicals.
func BenchmarkWalkBaseline(b *testing.B) {
	sim := movies(b)
	w, err := sim.NewWalker(DefaultWalkerConfig())
	if err != nil {
		b.Fatal(err)
	}
	inputs := sim.Catalog.Canonicals()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range inputs {
			_ = w.Synonyms(u)
		}
	}
}

// BenchmarkDictionarySegment times fuzzy query matching against the full
// mined dictionary.
func BenchmarkDictionarySegment(b *testing.B) {
	sim := movies(b)
	results, err := sim.MineAll(DefaultMinerConfig())
	if err != nil {
		b.Fatal(err)
	}
	dict := sim.BuildDictionary(results)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dict.Segment("showtimes for indy 4 near san francisco tonight")
	}
}

// ---- Serving-layer benchmarks ----

// serveQueries builds a query mix over the movie catalog: every
// canonical title crossed with common suffixes.
func serveQueries(b *testing.B, n int) []string {
	sim := movies(b)
	suffixes := []string{" showtimes", " tickets", " dvd", " review", ""}
	ents := sim.Catalog.All()
	out := make([]string, n)
	for i := range out {
		e := ents[i%len(ents)]
		out[i] = e.Canonical + suffixes[i%len(suffixes)]
	}
	return out
}

// BenchmarkServeMatchParallel drives the single-query serve path from
// all CPUs at once (b.RunParallel) over a skewed query mix (every query
// repeats, as production traffic would). "cached" prewarms every query
// and then measures
// pure hit-path throughput under contention — the lock-striped CLOCK
// cache takes only a shard read-lock and an atomic reference-bit store
// per hit, so this sub-benchmark is gated at 0 allocs/op. "uncached"
// disables the cache and measures contended arena-pool throughput.
func BenchmarkServeMatchParallel(b *testing.B) {
	snap := movieSnapshot(b)
	queries := serveQueries(b, 200)

	b.Run("cached", func(b *testing.B) {
		s := NewMatchServer(snap, ServeConfig{CacheSize: 4096})
		for _, q := range queries {
			if err := s.DoView(MatchRequest{Query: q}, func(*MatchResponse, bool) {}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				err := s.DoView(MatchRequest{Query: queries[i%len(queries)]}, func(*MatchResponse, bool) {})
				if err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
	b.Run("uncached", func(b *testing.B) {
		s := NewMatchServer(snap, ServeConfig{CacheSize: -1})
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				err := s.DoView(MatchRequest{Query: queries[i%len(queries)]}, func(*MatchResponse, bool) {})
				if err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}

// BenchmarkRegistryFederateParallel measures the federated fan-out path
// under request-level concurrency: a two-domain registry (the movie
// snapshot registered twice) answers domainless queries, so every
// request runs the inline ≤4-target fan-out, the merge sort, and the
// provenance stamping. Caches are prewarmed, so the number isolates the
// federation overhead itself — pooled scratch, no per-query goroutines.
func BenchmarkRegistryFederateParallel(b *testing.B) {
	snap := movieSnapshot(b)
	queries := serveQueries(b, 200)
	reg := NewRegistry(ServeConfig{CacheSize: 4096})
	for _, name := range []string{"movies", "shadow"} {
		if _, err := reg.Add(name, snap, SnapshotMeta{}); err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range queries {
		if r := reg.DoItem(MatchRequest{Query: q}, nil); r.Error != "" {
			b.Fatal(r.Error)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if r := reg.DoItem(MatchRequest{Query: queries[i%len(queries)]}, nil); r.Error != "" {
				b.Fatal(r.Error)
			}
			i++
		}
	})
}

// BenchmarkServeBatch drives one 256-query POST /v1/match through the
// handler that serves it — body decode, the batch worker pool,
// response encode. The cache is disabled so the benchmark measures
// matching throughput, not cache hits.
func BenchmarkServeBatch(b *testing.B) {
	snap := movieSnapshot(b)
	items := make([]MatchRequest, 256)
	for i, q := range serveQueries(b, len(items)) {
		items[i] = MatchRequest{Query: q}
	}
	body, err := json.Marshal(map[string]any{"queries": items})
	if err != nil {
		b.Fatal(err)
	}
	h := NewMatchServer(snap, ServeConfig{CacheSize: -1}).Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/match", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	qps := float64(b.N) * float64(len(items)) / b.Elapsed().Seconds()
	b.ReportMetric(qps, "queries/s")
}

// BenchmarkEngineMatch times the unified engine across its three query
// classes: exact trie hits, per-token typo correction, and span-level
// fuzzy resolution through the trigram index (the expensive new path).
// It drives Server.DoView — the cache-disabled zero-copy API over the
// pooled scratch arenas — so the gated number covers request validation,
// tokenization and the full arena hot path; the alloc column is the
// steady-state allocation gate (0 allocs/op across all classes, pinned
// by TestEngineAllocBudget).
func BenchmarkEngineMatch(b *testing.B) {
	snap := movieSnapshot(b)
	s := NewMatchServer(snap, ServeConfig{CacheSize: -1})
	classes := []struct {
		name    string
		queries []string
	}{
		{"exact", []string{
			"the dark knight tickets",
			"quantum of solace showtimes",
			"madagascar 2 dvd",
		}},
		{"typo", []string{
			"twilght reviews",
			"quantem of solace",
			"madagscar 2 trailer",
		}},
		{"span-fuzzy", []string{
			"kingdom of the kristol skull showtimes",
			"quntum of solacee",
			"bangkok dangeruos cage movie",
		}},
	}
	for _, c := range classes {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := s.DoView(MatchRequest{Query: c.queries[i%len(c.queries)]}, func(*MatchResponse, bool) {})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotOpen contrasts the two modes of the one snapshot
// decoder: copy (ReadSnapshotFile) against the mmap-backed alias mode
// (OpenSnapshotMapped), which leaves the fuzzy posting slabs in the
// mapping instead of copying them out. The gap is the cold-boot win
// hot reload gets from -mmap; the page cache is warm here, so the delta
// is pure decode work.
func BenchmarkSnapshotOpen(b *testing.B) {
	snap := movieSnapshot(b)
	path := b.TempDir() + "/movies.snap"
	if err := snap.WriteFile(path); err != nil {
		b.Fatal(err)
	}
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ReadSnapshotFile(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := OpenSnapshotMapped(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}
