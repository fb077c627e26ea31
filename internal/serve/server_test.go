package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"websyn/internal/match"
)

func testServer(cfg Config) *Server {
	return NewServer(testSnapshot(), cfg)
}

func TestMatchUsesCache(t *testing.T) {
	s := testServer(Config{CacheSize: 16})
	first := s.legacyMatch("indy 4 showtimes")
	if first.Cached {
		t.Fatal("first request claimed a cache hit")
	}
	if len(first.Matches) == 0 || first.Matches[0].EntityID != 0 {
		t.Fatalf("unexpected match: %+v", first)
	}
	second := s.legacyMatch("Indy   4 showtimes") // same normalized key
	if !second.Cached {
		t.Fatal("second request missed the cache")
	}
	second.Cached = false
	if !jsonEqual(t, first, second) {
		t.Fatalf("cached response diverged:\n%+v\n%+v", first, second)
	}
	st := s.gen.Load().cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

func TestMatchCacheDisabled(t *testing.T) {
	s := testServer(Config{CacheSize: -1})
	s.legacyMatch("indy 4")
	if r := s.legacyMatch("indy 4"); r.Cached {
		t.Fatal("disabled cache produced a hit")
	}
}

func TestMatchBatchOrderAndResults(t *testing.T) {
	s := testServer(Config{})
	queries := make([]string, 150)
	for i := range queries {
		switch i % 3 {
		case 0:
			queries[i] = fmt.Sprintf("indy 4 tickets %d", i)
		case 1:
			queries[i] = fmt.Sprintf("madagascar 2 %d", i)
		default:
			queries[i] = fmt.Sprintf("nothing here %d", i)
		}
	}
	got := s.legacyBatch(queries)
	if len(got) != len(queries) {
		t.Fatalf("%d results for %d queries", len(got), len(queries))
	}
	for i, r := range got {
		want := s.legacyMatch(queries[i])
		want.Cached = false
		r.Cached = false
		if !jsonEqual(t, want, r) {
			t.Fatalf("result %d diverged:\n got %+v\nwant %+v", i, r, want)
		}
	}
}

func TestHTTPMatch(t *testing.T) {
	ts := httptest.NewServer(testServer(Config{}).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/match?q=indy+4+near+san+francisco")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var mr MatchResult
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Matches) != 1 || mr.Matches[0].Span != "indy 4" {
		t.Fatalf("bad match payload: %+v", mr)
	}
	if mr.Remainder != "near san francisco" {
		t.Fatalf("remainder %q", mr.Remainder)
	}

	if resp, err := http.Get(ts.URL + "/match"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("missing q: status %d", resp.StatusCode)
		}
	}
}

func TestHTTPBatch(t *testing.T) {
	srv := testServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Acceptance: >= 100 queries in one request, per-query segmentations.
	queries := make([]string, 120)
	for i := range queries {
		queries[i] = fmt.Sprintf("madagascar 2 dvd %d", i)
	}
	body, _ := json.Marshal(BatchRequest{Queries: queries})
	resp, err := http.Post(ts.URL+"/match/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Count != 120 || len(br.Results) != 120 {
		t.Fatalf("count %d, %d results", br.Count, len(br.Results))
	}
	for i, r := range br.Results {
		if len(r.Matches) == 0 || r.Matches[0].EntityID != 1 {
			t.Fatalf("result %d unmatched: %+v", i, r)
		}
	}

	// Error paths.
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"empty", `{"queries":[]}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/match/batch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}

	// Over the batch limit.
	small := NewServer(testSnapshot(), Config{MaxBatch: 10})
	ts2 := httptest.NewServer(small.Handler())
	defer ts2.Close()
	resp2, err := http.Post(ts2.URL+"/match/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d", resp2.StatusCode)
	}

	// Over the byte limit (scales with MaxBatch: 1MB + 512*10 here).
	huge, _ := json.Marshal(BatchRequest{Queries: []string{strings.Repeat("x ", 1<<20)}})
	resp3, err := http.Post(ts2.URL+"/match/batch", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d", resp3.StatusCode)
	}
}

// TestMatchResultIsolatedFromCache guards against callers mutating a
// returned result corrupting the cache (and vice versa).
func TestMatchResultIsolatedFromCache(t *testing.T) {
	s := testServer(Config{CacheSize: 16})
	first := s.legacyMatch("indy 4")
	if len(first.Matches) == 0 {
		t.Fatal("no match")
	}
	first.Matches[0].Canonical = "MUTATED"

	second := s.legacyMatch("indy 4")
	if !second.Cached {
		t.Fatal("expected cache hit")
	}
	if second.Matches[0].Canonical == "MUTATED" {
		t.Fatal("caller mutation leaked into the cache")
	}
	second.Matches[0].Canonical = "MUTATED AGAIN"
	if third := s.legacyMatch("indy 4"); third.Matches[0].Canonical == "MUTATED AGAIN" {
		t.Fatal("mutation of a cache-hit result leaked into the cache")
	}
}

func TestHTTPFuzzyAndSynonyms(t *testing.T) {
	ts := httptest.NewServer(testServer(Config{}).Handler())
	defer ts.Close()

	var fr FuzzyResult
	getJSON(t, ts.URL+"/fuzzy?q=madagascar2", &fr)
	if len(fr.Hits) < 2 || fr.Hits[0].Text != "madagascar" || fr.Hits[1].Text != "madagascar 2" {
		t.Fatalf("fuzzy hits: %+v", fr.Hits)
	}
	if fr.Hits[0].EntityID != 2 || fr.Hits[1].EntityID != 1 {
		t.Fatalf("fuzzy hit entities: %+v", fr.Hits)
	}

	var sr SynonymsResult
	getJSON(t, ts.URL+"/synonyms?u=Madagascar:+Escape+2+Africa", &sr)
	if sr.Input != "Madagascar: Escape 2 Africa" || len(sr.Synonyms) != 1 {
		t.Fatalf("synonyms: %+v", sr)
	}

	resp, err := http.Get(ts.URL + "/synonyms?u=unknown+title")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown canonical: status %d", resp.StatusCode)
	}
}

func TestHTTPStatsz(t *testing.T) {
	srv := testServer(Config{CacheSize: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/match?q=indy+4")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	body, _ := json.Marshal(BatchRequest{Queries: []string{"madagascar 2", "indy 4"}})
	resp, err := http.Post(ts.URL+"/match/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var st Stats
	getJSON(t, ts.URL+"/statsz", &st)
	if st.Dataset != "Movies" {
		t.Errorf("dataset %q", st.Dataset)
	}
	if st.Requests.Match != 3 || st.Requests.Batch != 1 || st.Requests.BatchQueries != 2 {
		t.Errorf("request counters: %+v", st.Requests)
	}
	if st.Cache.Hits < 2 {
		t.Errorf("cache hits %d, want >= 2", st.Cache.Hits)
	}
	if st.Cache.Shards < 1 || len(st.Cache.ShardSizes) != st.Cache.Shards {
		t.Errorf("cache shard stats: %+v", st.Cache)
	}
	sum := 0
	for _, n := range st.Cache.ShardSizes {
		sum += n
	}
	if sum != st.Cache.Size {
		t.Errorf("shard sizes sum %d, size %d", sum, st.Cache.Size)
	}
	// Sequential requests never collapse: the singleflight counters must
	// exist in the payload but stay zero here.
	if st.Cache.SingleflightHits != 0 || st.Cache.SingleflightShared != 0 {
		t.Errorf("singleflight counters moved on sequential traffic: %+v", st.Cache)
	}
	if st.Latency.Match.Count != 3 || st.Latency.Match.MeanMicros <= 0 {
		t.Errorf("match latency: %+v", st.Latency.Match)
	}
	if st.Dictionary.Entries == 0 || st.Dictionary.FuzzyStrings == 0 {
		t.Errorf("dictionary stats: %+v", st.Dictionary)
	}
}

// TestServerConcurrentMixedLoad drives every endpoint concurrently; with
// -race this is the cache-under-concurrency acceptance test at the HTTP
// layer.
func TestServerConcurrentMixedLoad(t *testing.T) {
	srv := testServer(Config{CacheSize: 32})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := []string{"indy 4", "madagascar 2", "crystal skull dvd", "unrelated"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := queries[(g+i)%len(queries)]
				resp, err := http.Get(ts.URL + "/match?q=" + strings.ReplaceAll(q, " ", "+"))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if i%10 == 0 {
					body, _ := json.Marshal(BatchRequest{Queries: queries})
					resp, err := http.Post(ts.URL+"/match/batch", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()

	st := srv.Stats()
	if st.Requests.Match != 240 {
		t.Fatalf("match requests %d, want 240", st.Requests.Match)
	}
	if st.Cache.Hits == 0 {
		t.Fatal("no cache hits under repeated identical queries")
	}
}

// probeSnapshot builds a snapshot whose "probe target" string resolves
// to the given entity — two of these (entity 0 vs 1) make generations
// distinguishable through Server.Do.
func probeSnapshot(entity int) *Snapshot {
	d := match.NewDictionary()
	d.Add("Alpha Movie", match.Entry{EntityID: 0, Score: 1, Source: "canonical"})
	d.Add("Beta Movie", match.Entry{EntityID: 1, Score: 1, Source: "canonical"})
	d.Add("probe target", match.Entry{EntityID: entity, Score: 0.9, Source: "mined"})
	return &Snapshot{
		Dataset:    "Probe",
		MinSim:     0.55,
		Canonicals: []string{"Alpha Movie", "Beta Movie"},
		Synonyms:   map[string][]string{},
		Dict:       d,
		Fuzzy:      d.NewFuzzyIndex(0.55).Packed(),
	}
}

// TestConcurrentDoAcrossInstall hammers a domain from many goroutines,
// on two surfaces — the public Do API and 256-item /v1/match batches
// through its registry's handler — while the main goroutine hot-swaps
// generations whose dictionaries resolve the probe query differently.
// The per-generation request cache is the subject of the first: after an
// Install returns, a fresh Do must answer from the new generation — a
// cache shared across generations would keep serving the old entity. The
// request-scoped generation pin is the subject of the second: every item
// of one response, exact route or single-target fan, must come from the
// same dictionary. With -race this doubles as the data-race proof for
// the generation handle under both.
func TestConcurrentDoAcrossInstall(t *testing.T) {
	reg := NewRegistry(Config{CacheSize: 64})
	s, err := reg.Add("probe", probeSnapshot(0), SnapshotMeta{})
	if err != nil {
		t.Fatal(err)
	}
	req := match.Request{Query: "probe target tickets"}

	// Whatever generation answered, the response must be internally
	// consistent — one of the two valid answers, never a blend.
	torn := func(res *match.Response) bool {
		return len(res.Matches) != 1 || res.Matches[0].EntityID > 1 || res.Remainder != "tickets"
	}
	handler := reg.Handler()
	var batch V1Request
	for i := 0; i < 256; i++ {
		it := req
		if i%2 == 0 {
			it.Domain = "probe"
		}
		batch.Queries = append(batch.Queries, it)
	}
	batchBody := mustJSON(batch)
	surfaces := []func() error{
		func() error {
			res, err := s.Do(req)
			if err != nil {
				return fmt.Errorf("Do: %v", err)
			}
			if torn(&res) {
				return fmt.Errorf("torn response: %+v", res)
			}
			return nil
		},
		func() error {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/match", bytes.NewReader(batchBody)))
			var vr V1Response
			if err := json.Unmarshal(rec.Body.Bytes(), &vr); err != nil || len(vr.Results) != 256 {
				return fmt.Errorf("batch: status %d, %d results, %v", rec.Code, len(vr.Results), err)
			}
			for i, r := range vr.Results {
				if r.Response == nil || torn(r.Response) {
					return fmt.Errorf("batch item %d torn: %+v", i, r)
				}
				if got, want := r.Matches[0].EntityID, vr.Results[0].Matches[0].EntityID; got != want {
					return fmt.Errorf("batch mixed generations: item %d answered entity %d, item 0 entity %d", i, got, want)
				}
			}
			return nil
		},
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var rounds [2]atomic.Int64 // completed calls per surface
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := surfaces[k](); err != nil {
					t.Error(err)
					return
				}
				rounds[k].Add(1)
			}
		}(w % len(surfaces))
	}
	// awaitTraffic holds the next swap back until both surfaces have
	// completed a call that started after the previous one.
	awaitTraffic := func() {
		seen := [2]int64{rounds[0].Load(), rounds[1].Load()}
		for k := range rounds {
			for rounds[k].Load() < seen[k]+2 && !t.Failed() {
				runtime.Gosched()
			}
		}
	}

	const swaps = 10
	for i := 1; i <= swaps; i++ {
		entity := i % 2
		gen, err := s.Prepare(probeSnapshot(entity), SnapshotMeta{})
		if err != nil {
			t.Fatal(err)
		}
		s.Install(gen)
		// The moment Install returns, a new Do must see the new
		// dictionary: a stale (cross-generation) cache entry would still
		// answer with the previous entity.
		res, err := s.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 1 || res.Matches[0].EntityID != entity {
			t.Fatalf("swap %d: Do answered entity %+v, want %d (stale generation served)", i, res.Matches, entity)
		}
		awaitTraffic()
	}
	close(stop)
	wg.Wait()

	if gen, swapped := s.Generation(); gen != swaps+1 || swapped != swaps {
		t.Fatalf("generation %d swaps %d, want %d, %d", gen, swapped, swaps+1, swaps)
	}
	// One more identical request: the final generation's cache now holds
	// the probe (the post-Install Do above), so this must hit — proving
	// the staleness guarantee comes from per-generation caches, not from
	// caching being accidentally disabled.
	if _, err := s.Do(req); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Cache.Hits == 0 {
		t.Fatalf("final generation saw no cache hits: %+v", st.Cache)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// jsonEqual compares two values by JSON encoding (ignores nil-vs-empty
// slice distinctions the handlers don't care about).
func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}
