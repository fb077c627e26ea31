package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"websyn/internal/rewrite"
)

// testCameraVocabulary is a hand-built camera vocabulary: a continuous
// price column with band/comparator/unit lexicons and a brand dictionary.
func testCameraVocabulary() *rewrite.Vocabulary {
	return &rewrite.Vocabulary{
		Domain: "cameras",
		Numeric: []rewrite.NumericColumn{{
			Name: "price", Unit: "usd", Min: 100, Max: 1000,
			UnitTokens: []string{"dollars", "usd"},
			Bands:      []rewrite.Band{{Token: "cheap", Op: "lte", Value: 250}},
			Comparators: []rewrite.Comparator{
				{Token: "under", Op: "lt"}, {Token: "over", Op: "gt"},
			},
		}},
		Categorical: []rewrite.CategoricalColumn{
			{Name: "brand", Values: []string{"canon", "nikon"}},
		},
	}
}

// vocabServer builds a standalone server over the movie test snapshot
// with the movie vocabulary attached.
func vocabServer(cfg Config) *Server {
	snap := testSnapshot()
	snap.Vocab = testVocabulary()
	return NewServer(snap, cfg)
}

func TestV2MatchSingle(t *testing.T) {
	ts := httptest.NewServer(vocabServer(Config{CacheSize: 16}).Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/v2/match",
		`{"query": "indiana jones 4 2008 adventure tickets", "explain": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var vr V1Response
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Count != 1 || len(vr.Results) != 1 {
		t.Fatalf("count %d, %d results", vr.Count, len(vr.Results))
	}
	r := vr.Results[0]
	if r.Error != "" || r.Response == nil {
		t.Fatalf("result = %+v", r)
	}
	if len(r.Matches) != 1 || r.Matches[0].EntityID != 0 {
		t.Fatalf("matches = %+v", r.Matches)
	}
	// The v1 fields keep their v1 meaning: Remainder is everything the
	// entity match left, Residual is what the rewrite stage left.
	if r.Remainder != "2008 adventure tickets" {
		t.Fatalf("remainder = %q", r.Remainder)
	}
	if r.Residual != "tickets" {
		t.Fatalf("residual = %q", r.Residual)
	}
	if len(r.Attributes) != 2 {
		t.Fatalf("attributes = %+v", r.Attributes)
	}
	if p := r.Attributes[0]; p.Column != "year" || p.Op != "eq" || p.Value != 2008 || p.Source != "value" {
		t.Errorf("year predicate = %+v", p)
	}
	if p := r.Attributes[1]; p.Column != "genre" || p.Op != "eq" || p.Text != "adventure" {
		t.Errorf("genre predicate = %+v", p)
	}
	// Explain carries rewrite-stage provenance.
	sawRewrite := false
	for _, step := range r.Trace {
		if step.Stage == "rewrite" {
			sawRewrite = true
		}
	}
	if !sawRewrite {
		t.Error("explain trace has no rewrite steps")
	}
}

// TestV2MatchNoVocabulary pins graceful degradation: without a mined
// vocabulary the v2 surface still answers, with empty attributes and
// the residual mirroring the remainder.
func TestV2MatchNoVocabulary(t *testing.T) {
	ts := httptest.NewServer(testServer(Config{}).Handler())
	defer ts.Close()

	_, data := postJSON(t, ts.URL+"/v2/match", `{"query": "indy 4 near san fran"}`)
	var vr V1Response
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	r := vr.Results[0]
	if r.Error != "" || len(r.Attributes) != 0 {
		t.Fatalf("result = %+v", r)
	}
	if r.Residual != r.Remainder {
		t.Fatalf("residual %q != remainder %q", r.Residual, r.Remainder)
	}
}

// TestV2CacheIsolation proves v1 and v2 never share a cache entry for
// the same query: the rewrite flag is part of the request key.
func TestV2CacheIsolation(t *testing.T) {
	ts := httptest.NewServer(vocabServer(Config{CacheSize: 16}).Handler())
	defer ts.Close()

	const body = `{"query": "indiana jones 4 2008 adventure"}`
	_, v1data := postJSON(t, ts.URL+"/v1/match", body)
	var v1r V1Response
	if err := json.Unmarshal(v1data, &v1r); err != nil {
		t.Fatal(err)
	}
	if len(v1r.Results[0].Attributes) != 0 || v1r.Results[0].Residual != "" {
		t.Fatalf("v1 result carries v2 fields: %+v", v1r.Results[0])
	}

	_, v2data := postJSON(t, ts.URL+"/v2/match", body)
	var v2r V1Response
	if err := json.Unmarshal(v2data, &v2r); err != nil {
		t.Fatal(err)
	}
	r := v2r.Results[0]
	if r.Cached {
		t.Fatal("v2 request hit the v1 cache entry")
	}
	if len(r.Attributes) == 0 {
		t.Fatalf("v2 result has no attributes: %+v", r)
	}

	// A repeated v2 request hits its own entry, attributes intact.
	_, v2again := postJSON(t, ts.URL+"/v2/match", body)
	var v2r2 V1Response
	if err := json.Unmarshal(v2again, &v2r2); err != nil {
		t.Fatal(err)
	}
	if !v2r2.Results[0].Cached {
		t.Fatal("repeated v2 request missed the cache")
	}
	if len(v2r2.Results[0].Attributes) != len(r.Attributes) {
		t.Fatalf("cached v2 result lost attributes: %+v", v2r2.Results[0])
	}
}

// TestV2RewriteNotClientSettable pins the API-version-is-the-switch
// stance: the rewrite flag has no JSON surface, so a v1 body trying to
// smuggle it is rejected by the strict decoder.
func TestV2RewriteNotClientSettable(t *testing.T) {
	ts := httptest.NewServer(vocabServer(Config{}).Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/v1/match", `{"query": "indy 4", "rewrite": true}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("smuggled rewrite flag: status %d, body %s", resp.StatusCode, data)
	}
}

// TestV1FrozenWithVocabulary is the golden regression for the v1
// freeze: every v1-era surface must return byte-identical bodies
// whether or not the snapshot carries an attribute vocabulary.
func TestV1FrozenWithVocabulary(t *testing.T) {
	bare := httptest.NewServer(NewServer(testSnapshot(), Config{CacheSize: -1}).Handler())
	defer bare.Close()
	vocab := httptest.NewServer(vocabServer(Config{CacheSize: -1}).Handler())
	defer vocab.Close()

	queries := []string{
		"indy 4 near san francisco",
		"indiana jones 4 2008 adventure", // remainder the rewriter WOULD consume
		"madagascar 2 trailer",
		"nothing here at all",
	}
	for _, q := range queries {
		body := `{"query": ` + jstr(q) + `, "explain": true}`
		_, a := postJSON(t, bare.URL+"/v1/match", body)
		_, b := postJSON(t, vocab.URL+"/v1/match", body)
		if an, bn := stripTiming(t, a), stripTiming(t, b); an != bn {
			t.Errorf("/v1/match %q diverged with vocabulary:\n got %s\nwant %s", q, bn, an)
		}

		qURL := "/match?q=" + strings.ReplaceAll(q, " ", "+")
		_, ga := httpGet(t, bare.URL+qURL)
		_, gb := httpGet(t, vocab.URL+qURL)
		if !bytes.Equal(ga, gb) {
			t.Errorf("/match %q diverged with vocabulary:\n got %s\nwant %s", q, gb, ga)
		}
	}

	// Batch, both shapes at once.
	batch, _ := json.Marshal(map[string]any{"queries": queries})
	_, a := postJSON(t, bare.URL+"/v1/match", `{"queries": `+string(mustJSON(queries))+`}`)
	_, b := postJSON(t, vocab.URL+"/v1/match", `{"queries": `+string(mustJSON(queries))+`}`)
	if an, bn := stripTiming(t, a), stripTiming(t, b); an != bn {
		t.Errorf("/v1/match batch diverged with vocabulary:\n got %s\nwant %s", bn, an)
	}
	for _, path := range []string{"/match/batch"} {
		ra, err := http.Post(bare.URL+path, "application/json", bytes.NewReader(batch))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := http.Post(vocab.URL+path, "application/json", bytes.NewReader(batch))
		if err != nil {
			t.Fatal(err)
		}
		ba := readAll(t, ra)
		bb := readAll(t, rb)
		if !bytes.Equal(ba, bb) {
			t.Errorf("%s diverged with vocabulary:\n got %s\nwant %s", path, bb, ba)
		}
	}

	// A literal golden body (timing stripped, keys normalized): pinned
	// text, so a field leaking into v1 fails loudly even if it leaks
	// into both servers symmetrically.
	_, g := postJSON(t, vocab.URL+"/v1/match", `{"query": "madagascar 2 trailer"}`)
	const golden = `{"count":1,"results":[{"matches":[{"canonical":"Madagascar: Escape 2 Africa","end":2,"entity_id":1,"method":"trie","score":0.9,"source":"mined","span":"madagascar 2","start":0}],"query":"madagascar 2 trailer","remainder":"trailer"}]}`
	if got := stripTiming(t, g); got != golden {
		t.Errorf("v1 golden body diverged:\n got %s\nwant %s", got, golden)
	}
}

// TestV1FederatedFrozenWithVocabulary extends the freeze to the
// registry: federated v1 responses are byte-identical (modulo timing)
// with and without per-domain vocabularies.
func TestV1FederatedFrozenWithVocabulary(t *testing.T) {
	bare := httptest.NewServer(testRegistry(t, Config{CacheSize: -1}).Handler())
	defer bare.Close()
	vocab := httptest.NewServer(testVocabRegistry(t, Config{CacheSize: -1}).Handler())
	defer vocab.Close()

	for _, body := range []string{
		`{"query": "indy 4 digital rebel xt cheap adventure", "explain": true}`,
		`{"query": "madagascar 2", "domain": "movies"}`,
		`{"query": "nikon d 80", "domains": ["movies", "cameras"]}`,
	} {
		_, a := postJSON(t, bare.URL+"/v1/match", body)
		_, b := postJSON(t, vocab.URL+"/v1/match", body)
		if an, bn := stripTiming(t, a), stripTiming(t, b); an != bn {
			t.Errorf("federated /v1/match %s diverged with vocabularies:\n got %s\nwant %s", body, bn, an)
		}
	}
}

// testVocabRegistry is testRegistry with per-domain vocabularies.
func testVocabRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	reg := NewRegistry(cfg)
	movies := testSnapshot()
	movies.Vocab = testVocabulary()
	cameras := testCamerasSnapshot()
	cameras.Vocab = testCameraVocabulary()
	if _, err := reg.Add("movies", movies, SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("cameras", cameras, SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestV2FederatedNoVocabularyLeak is the federation isolation test:
// when two domains both match a query, the merged response's predicates
// come from the winning domain's vocabulary only — a loser domain's
// lexicon must not annotate the winner's result.
func TestV2FederatedNoVocabularyLeak(t *testing.T) {
	ts := httptest.NewServer(testVocabRegistry(t, Config{CacheSize: 16}).Handler())
	defer ts.Close()

	// Both domains match ("indy 4" in movies at 0.8125, "digital rebel
	// xt" in cameras at 0.9); cameras wins the merge. "cheap" is camera
	// vocabulary, "adventure" is movie vocabulary.
	_, data := postJSON(t, ts.URL+"/v2/match",
		`{"query": "indy 4 digital rebel xt cheap adventure"}`)
	var vr V1Response
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	r := vr.Results[0]
	if r.Error != "" || len(r.Matches) < 2 {
		t.Fatalf("result = %+v", r)
	}
	if r.Matches[0].Domain != "cameras" {
		t.Fatalf("winner = %+v, want cameras on top", r.Matches[0])
	}
	if len(r.Attributes) != 1 {
		t.Fatalf("attributes = %+v, want the single camera band predicate", r.Attributes)
	}
	p := r.Attributes[0]
	if p.Column != "price" || p.Op != "lte" || p.Source != "band" {
		t.Errorf("predicate = %+v", p)
	}
	if p.Domain != "cameras" {
		t.Errorf("predicate domain = %q, want cameras provenance", p.Domain)
	}
	// The movie-only token survives in the winner's residual instead of
	// leaking through the movie vocabulary as a genre predicate.
	for _, p := range r.Attributes {
		if p.Column == "genre" {
			t.Errorf("movie vocabulary leaked into the cameras result: %+v", p)
		}
	}
	if r.Residual != "indy 4 adventure" {
		t.Errorf("residual = %q, want the winner's", r.Residual)
	}

	// Explicit single-domain routing through v2: movie predicates only.
	_, data = postJSON(t, ts.URL+"/v2/match",
		`{"query": "indy 4 2008 adventure", "domain": "movies"}`)
	var mv V1Response
	if err := json.Unmarshal(data, &mv); err != nil {
		t.Fatal(err)
	}
	mr := mv.Results[0]
	if mr.Error != "" || len(mr.Attributes) != 2 {
		t.Fatalf("movies result = %+v", mr)
	}
	// Exact routing carries provenance at the response level (like span
	// matches); the per-predicate stamp is a federation-only construct.
	if mr.Domain != "movies" {
		t.Errorf("routed response domain = %q", mr.Domain)
	}
	for _, p := range mr.Attributes {
		if p.Domain != "" {
			t.Errorf("routed predicate stamped outside federation: %+v", p)
		}
		if p.Column != "year" && p.Column != "genre" {
			t.Errorf("non-movie predicate: %+v", p)
		}
	}
}

// TestLegacyDeprecationHeaders pins the deprecation shim: the pre-v1
// endpoints announce Deprecation/Sunset/successor, the versioned
// endpoints do not — on the standalone surface and on a named registry,
// with and without ?domain=.
func TestLegacyDeprecationHeaders(t *testing.T) {
	standalone := httptest.NewServer(vocabServer(Config{}).Handler())
	defer standalone.Close()
	registry := httptest.NewServer(testRegistry(t, Config{}).Handler())
	defer registry.Close()

	for _, ts := range []struct{ name, url, param string }{
		{"standalone", standalone.URL, ""},
		{"registry", registry.URL, ""},
		{"registry ?domain=", registry.URL, "&domain=movies"},
	} {
		legacy := map[string]func() *http.Response{
			"/match": func() *http.Response {
				r, _ := httpGet(t, ts.url+"/match?q=indy+4"+ts.param)
				return r
			},
			"/fuzzy": func() *http.Response {
				r, _ := httpGet(t, ts.url+"/fuzzy?q=indy"+ts.param)
				return r
			},
			"/match/batch": func() *http.Response {
				r, _ := postJSON(t, ts.url+"/match/batch?"+ts.param, `{"queries": ["indy 4"]}`)
				return r
			},
		}
		for path, do := range legacy {
			resp := do()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s: status %d", ts.name, path, resp.StatusCode)
			}
			if got := resp.Header.Get("Deprecation"); got != legacyDeprecation {
				t.Errorf("%s %s: Deprecation = %q, want %q", ts.name, path, got, legacyDeprecation)
			}
			if got := resp.Header.Get("Sunset"); got != legacySunset {
				t.Errorf("%s %s: Sunset = %q, want %q", ts.name, path, got, legacySunset)
			}
			if got := resp.Header.Get("Link"); got != legacySuccessor {
				t.Errorf("%s %s: Link = %q, want %q", ts.name, path, got, legacySuccessor)
			}
		}
		for _, path := range []string{"/v1/match", "/v2/match"} {
			resp, _ := postJSON(t, ts.url+path, `{"query": "indy 4"}`)
			if resp.Header.Get("Deprecation") != "" || resp.Header.Get("Sunset") != "" {
				t.Errorf("%s %s stamped deprecation headers", ts.name, path)
			}
		}
	}
}

// TestStatszV2Shape pins the stats backward compatibility: a v1-only
// server's /statsz has no v2 keys; they appear after v2 traffic.
func TestStatszV2Shape(t *testing.T) {
	ts := httptest.NewServer(vocabServer(Config{}).Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/v1/match", `{"query": "indy 4"}`)
	_, body := httpGet(t, ts.URL+"/statsz")
	if bytes.Contains(body, []byte(`"v2"`)) {
		t.Fatalf("v1-only /statsz leaks v2 keys: %s", body)
	}

	postJSON(t, ts.URL+"/v2/match", `{"query": "indy 4"}`)
	_, body = httpGet(t, ts.URL+"/statsz")
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests.V2 != 1 || st.Requests.V2Queries != 1 || st.Latency.V2 == nil {
		t.Fatalf("v2 counters = %d/%d, latency %v", st.Requests.V2, st.Requests.V2Queries, st.Latency.V2)
	}
}

func jstr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

func mustJSON(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}

func readAll(t *testing.T, r *http.Response) []byte {
	t.Helper()
	defer r.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
