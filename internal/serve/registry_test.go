package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"websyn/internal/match"
)

// testCamerasSnapshot is a second vertical for multi-domain tests: the
// paper's D2 scenario in miniature.
func testCamerasSnapshot() *Snapshot {
	d := match.NewDictionary()
	d.Add("Canon EOS 350D", match.Entry{EntityID: 0, Score: 1, Source: "canonical"})
	d.Add("digital rebel xt", match.Entry{EntityID: 0, Score: 0.9, Source: "mined"})
	d.Add("Nikon D80", match.Entry{EntityID: 1, Score: 1, Source: "canonical"})
	d.Add("nikon d 80", match.Entry{EntityID: 1, Score: 0.7, Source: "mined"})
	return &Snapshot{
		Dataset: "Cameras",
		MinSim:  0.55,
		Fuzzy:   d.NewFuzzyIndex(0.55).Packed(),
		Canonicals: []string{
			"Canon EOS 350D",
			"Nikon D80",
		},
		Synonyms: map[string][]string{
			"canon eos 350d": {"digital rebel xt"},
		},
		Dict: d,
	}
}

// testRegistry builds a two-domain registry: movies (default) + cameras.
func testRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	reg := NewRegistry(cfg)
	if _, err := reg.Add("movies", testSnapshot(), SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("cameras", testCamerasSnapshot(), SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestRegistryAddValidation(t *testing.T) {
	reg := NewRegistry(Config{})
	for _, bad := range []string{"", "*", "a=b", "a,b", "a b"} {
		if _, err := reg.Add(bad, testSnapshot(), SnapshotMeta{}); err == nil {
			t.Errorf("Add(%q) accepted an invalid domain name", bad)
		}
	}
	if _, err := reg.Add("movies", testSnapshot(), SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("movies", testSnapshot(), SnapshotMeta{}); err == nil {
		t.Error("duplicate Add accepted")
	}
	if _, err := reg.Add("cameras", nil, SnapshotMeta{}); err == nil {
		t.Error("nil snapshot accepted")
	}
	if err := reg.SetDefault("nope"); err == nil {
		t.Error("SetDefault accepted an unregistered domain")
	}
	if reg.DefaultName() != "movies" {
		t.Errorf("default = %q, want first registered", reg.DefaultName())
	}
}

func TestRegistryExactRouting(t *testing.T) {
	ts := httptest.NewServer(testRegistry(t, Config{CacheSize: 16}).Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/v1/match", `{"query": "digital rebel xt price", "domain": "cameras"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var vr V1Response
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	r := vr.Results[0]
	if r.Error != "" || r.Response == nil {
		t.Fatalf("result = %+v", r)
	}
	if r.Domain != "cameras" {
		t.Fatalf("response domain %q, want cameras", r.Domain)
	}
	if len(r.Matches) != 1 || r.Matches[0].Canonical != "Canon EOS 350D" {
		t.Fatalf("matches = %+v", r.Matches)
	}
	if r.Remainder != "price" {
		t.Fatalf("remainder = %q", r.Remainder)
	}

	// The same query routed at movies resolves nothing — and says which
	// domain said so.
	_, data = postJSON(t, ts.URL+"/v1/match", `{"query": "digital rebel xt price", "domain": "movies"}`)
	var vr2 V1Response
	if err := json.Unmarshal(data, &vr2); err != nil {
		t.Fatal(err)
	}
	if r := vr2.Results[0]; r.Domain != "movies" || len(r.Matches) != 0 {
		t.Fatalf("movies-routed camera query: %+v", r)
	}

	// Unknown domain: a per-item error, so one bad item cannot fail a
	// whole batch.
	_, data = postJSON(t, ts.URL+"/v1/match",
		`{"queries": [{"query": "indy 4", "domain": "movies"}, {"query": "indy 4", "domain": "books"}]}`)
	var vr3 V1Response
	if err := json.Unmarshal(data, &vr3); err != nil {
		t.Fatal(err)
	}
	if vr3.Results[0].Error != "" || vr3.Results[0].Domain != "movies" {
		t.Fatalf("good item: %+v", vr3.Results[0])
	}
	if !strings.Contains(vr3.Results[1].Error, `unknown domain "books"`) {
		t.Fatalf("bad item error = %q", vr3.Results[1].Error)
	}
}

func TestRegistryFederated(t *testing.T) {
	ts := httptest.NewServer(testRegistry(t, Config{CacheSize: 16}).Handler())
	defer ts.Close()

	// A query spanning two verticals, no domain named: fan out and merge
	// by score — the camera entry (0.9) outranks the movie (0.8125).
	_, data := postJSON(t, ts.URL+"/v1/match", `{"query": "indy 4 digital rebel xt", "explain": true}`)
	var vr V1Response
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	r := vr.Results[0]
	if r.Error != "" || r.Response == nil {
		t.Fatalf("result = %+v", r)
	}
	if r.Domain != "" {
		t.Fatalf("federated response claims a single domain %q", r.Domain)
	}
	if len(r.Matches) != 2 {
		t.Fatalf("matches = %+v", r.Matches)
	}
	if r.Matches[0].Canonical != "Canon EOS 350D" || r.Matches[0].Domain != "cameras" {
		t.Fatalf("top match = %+v", r.Matches[0])
	}
	if r.Matches[1].Canonical != "Indiana Jones and the Kingdom of the Crystal Skull" || r.Matches[1].Domain != "movies" {
		t.Fatalf("second match = %+v", r.Matches[1])
	}
	// The winning domain's remainder: cameras matched "digital rebel xt"
	// and left "indy 4" over.
	if r.Remainder != "indy 4" {
		t.Fatalf("remainder = %q", r.Remainder)
	}
	if len(r.Trace) == 0 {
		t.Fatal("explain produced no federated trace")
	}
	for _, step := range r.Trace {
		if step.Domain != "movies" && step.Domain != "cameras" {
			t.Fatalf("trace step without domain provenance: %+v", step)
		}
	}

	// An identical fan-out is answered from every domain's cache.
	_, data = postJSON(t, ts.URL+"/v1/match", `{"query": "indy 4 digital rebel xt", "explain": true}`)
	var vr2 V1Response
	if err := json.Unmarshal(data, &vr2); err != nil {
		t.Fatal(err)
	}
	if !vr2.Results[0].Cached {
		t.Fatal("repeated federated query missed the caches")
	}
	vr2.Results[0].Cached = false
	vr2.Results[0].Timing = vr.Results[0].Timing
	if !jsonEqual(t, vr.Results[0], vr2.Results[0]) {
		t.Fatalf("cached federated response diverged:\n%+v\n%+v", vr.Results[0], vr2.Results[0])
	}
}

func TestRegistryDomainsList(t *testing.T) {
	ts := httptest.NewServer(testRegistry(t, Config{}).Handler())
	defer ts.Close()

	// Explicit wildcard: same as the omitted form.
	_, data := postJSON(t, ts.URL+"/v1/match", `{"query": "indy 4 digital rebel xt", "domains": ["*"]}`)
	var vr V1Response
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	if len(vr.Results[0].Matches) != 2 {
		t.Fatalf("wildcard fan-out matches = %+v", vr.Results[0].Matches)
	}

	// A single-domain list is an exact route the client asked for by
	// name, so the response is stamped.
	_, data = postJSON(t, ts.URL+"/v1/match", `{"query": "indy 4", "domains": ["movies"]}`)
	var vr2 V1Response
	if err := json.Unmarshal(data, &vr2); err != nil {
		t.Fatal(err)
	}
	if vr2.Results[0].Domain != "movies" || len(vr2.Results[0].Matches) != 1 {
		t.Fatalf("single-domain list: %+v", vr2.Results[0])
	}

	// Unknown names in domains are a request-level 400 — the fan-out set
	// is malformed, not one item.
	resp, data := postJSON(t, ts.URL+"/v1/match", `{"query": "indy 4", "domains": ["movies", "books"]}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), `unknown domain \"books\"`) {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}

	// domain and domains cannot be combined.
	resp, data = postJSON(t, ts.URL+"/v1/match", `{"query": "indy 4", "domain": "movies", "domains": ["*"]}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "mutually exclusive") {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
}

func TestRegistryLegacyDelegation(t *testing.T) {
	reg := testRegistry(t, Config{})
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	// Default domain (movies, first registered) serves domainless legacy
	// traffic.
	resp, err := http.Get(ts.URL + "/match?q=" + url.QueryEscape("indy 4 tickets"))
	if err != nil {
		t.Fatal(err)
	}
	var mr MatchResult
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(mr.Matches) != 1 || mr.Matches[0].EntityID != 0 || mr.Remainder != "tickets" {
		t.Fatalf("legacy default-domain match: %+v", mr)
	}

	// ?domain= picks another vertical.
	resp, err = http.Get(ts.URL + "/match?domain=cameras&q=" + url.QueryEscape("digital rebel xt"))
	if err != nil {
		t.Fatal(err)
	}
	var cr MatchResult
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cr.Matches) != 1 || cr.Matches[0].Canonical != "Canon EOS 350D" {
		t.Fatalf("legacy cameras match: %+v", cr)
	}

	// Unknown domain: 404.
	resp, err = http.Get(ts.URL + "/match?domain=books&q=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown legacy domain: status %d", resp.StatusCode)
	}
}

// TestRegistrySingleDomainDifferential is the byte-identity proof the
// legacy contract rests on: a registry serving one domain answers every
// domainless request exactly like a standalone Server over the same
// snapshot. /v1/match responses carry wall-clock timing, so those are
// compared with the timing fields normalized; the legacy endpoints are
// compared byte for byte.
func TestRegistrySingleDomainDifferential(t *testing.T) {
	cfg := Config{CacheSize: 16, MaxBatch: 3}
	// With a vocabulary, so the /v2/match rows compare real predicates.
	snapshot := func() *Snapshot {
		snap := testSnapshot()
		snap.Vocab = testVocabulary()
		return snap
	}
	standalone := httptest.NewServer(NewServer(snapshot(), cfg).Handler())
	defer standalone.Close()
	reg := NewRegistry(cfg)
	if _, err := reg.Add("default", snapshot(), SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	registry := httptest.NewServer(reg.Handler())
	defer registry.Close()

	get := []string{
		"/match?q=" + url.QueryEscape("indy 4 near san fran"),
		"/match?q=" + url.QueryEscape("madagascar 2 dvd"),
		"/fuzzy?q=" + url.QueryEscape("madagascr"),
		"/synonyms?u=" + url.QueryEscape("Madagascar: Escape 2 Africa"),
		"/synonyms?u=nothing",
		"/match?q=",
		"/healthz",
	}
	for _, path := range get {
		a, aBody := httpGet(t, standalone.URL+path)
		b, bBody := httpGet(t, registry.URL+path)
		if a.StatusCode != b.StatusCode || string(aBody) != string(bBody) {
			t.Errorf("GET %s diverged:\nstandalone %d: %s\nregistry %d: %s",
				path, a.StatusCode, aBody, b.StatusCode, bBody)
		}
	}

	// One item over cfg.MaxBatch, and one byte class over the body cap
	// that scales with it.
	oversizeBatch := `{"queries": [{"query": "a"}, {"query": "b"}, {"query": "c"}, {"query": "d"}]}`
	oversizeBody := fmt.Sprintf(`{"query": %q}`, strings.Repeat("x ", 1<<20))
	post := []struct{ path, body string }{
		{"/match/batch", `{"queries": ["indy 4", "madagascar 2", "nothing here"]}`},
		{"/match/batch", `{"queries": []}`},
		{"/match/batch", `not json`},
		{"/v1/match", `{"query": "indy 4 near san fran", "explain": true}`},
		{"/v1/match", `{"queries": [{"query": "indy 4"}, {"query": "madagascr", "mode": "fuzzy"}], "top_k": 2}`},
		{"/v1/match", `{"query": ""}`},
		{"/v1/match", `{"query": "x", "queries": [{"query": "y"}]}`},
		{"/v1/match", `{"query": "x", "mode": "bogus"}`},
		{"/v1/match", `{"unknown_field": 1}`},
		{"/v2/match", `{"query": "indy 4 since 2008"}`},
		{"/v2/match", `{"queries": [{"query": "indy 4 since 2008"}, {"query": "madagascr", "mode": "fuzzy"}], "top_k": 2}`},
		{"/v2/match", `{"query": "recent indy 4 near san fran", "explain": true}`},
		{"/v1/match", oversizeBatch},
		{"/v2/match", oversizeBatch},
		{"/match/batch", `{"queries": ["a", "b", "c", "d"]}`},
		{"/v1/match", oversizeBody},
		{"/v2/match", oversizeBody},
		{"/match/batch", oversizeBody},
	}
	for _, req := range post {
		a, aBody := postJSON(t, standalone.URL+req.path, req.body)
		b, bBody := postJSON(t, registry.URL+req.path, req.body)
		if a.StatusCode != b.StatusCode {
			t.Errorf("POST %s %.80s: status %d vs %d", req.path, req.body, a.StatusCode, b.StatusCode)
			continue
		}
		aNorm, bNorm := string(aBody), string(bBody)
		if req.path != "/match/batch" && a.StatusCode == http.StatusOK {
			aNorm, bNorm = stripTiming(t, aBody), stripTiming(t, bBody)
		}
		if aNorm != bNorm {
			t.Errorf("POST %s %.80s diverged:\nstandalone: %s\nregistry:   %s", req.path, req.body, aNorm, bNorm)
		}
	}
}

// stripTiming normalizes the per-result wall-clock timing of a v1
// response so two servers answering the same request compare equal.
func stripTiming(t *testing.T, body []byte) string {
	t.Helper()
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	results, _ := raw["results"].([]any)
	for _, r := range results {
		if m, ok := r.(map[string]any); ok {
			delete(m, "timing")
		}
	}
	out, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func httpGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestRegistryStatsAndSnapshots(t *testing.T) {
	reg := testRegistry(t, Config{CacheSize: 16})
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/v1/match", `{"query": "indy 4", "domain": "movies"}`)
	postJSON(t, ts.URL+"/v1/match", `{"query": "indy 4 digital rebel xt"}`) // fan-out

	var st RegistryStats
	getStatsJSON(t, ts.URL+"/statsz", &st)
	if st.DefaultDomain != "movies" || st.DomainCount != 2 {
		t.Fatalf("registry stats header: %+v", st)
	}
	if st.Requests.V1 != 2 || st.Requests.V1Queries != 2 || st.Requests.FanoutQueries != 1 {
		t.Fatalf("registry request counters: %+v", st.Requests)
	}
	if len(st.Domains) != 2 {
		t.Fatalf("domains in stats: %v", st.Domains)
	}
	// movies answered the exact route and one fan-out leg; cameras one
	// fan-out leg.
	if got := st.Domains["movies"].Requests.RoutedQueries; got != 2 {
		t.Fatalf("movies routed_queries = %d, want 2", got)
	}
	if got := st.Domains["cameras"].Requests.RoutedQueries; got != 1 {
		t.Fatalf("cameras routed_queries = %d, want 1", got)
	}
	if st.Domains["movies"].Dataset != "Movies" || st.Domains["cameras"].Dataset != "Cameras" {
		t.Fatalf("per-domain datasets: %+v", st.Domains)
	}

	// /admin/snapshot: all domains, then one.
	var infos map[string]SnapshotInfo
	getStatsJSON(t, ts.URL+"/admin/snapshot", &infos)
	if len(infos) != 2 || infos["movies"].Generation != 1 || infos["cameras"].Generation != 1 {
		t.Fatalf("snapshot infos: %+v", infos)
	}
	var info SnapshotInfo
	getStatsJSON(t, ts.URL+"/admin/snapshot?domain=cameras", &info)
	if info.Dataset != "Cameras" {
		t.Fatalf("single-domain snapshot info: %+v", info)
	}
	resp, err := http.Get(ts.URL + "/admin/snapshot?domain=books")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown domain snapshot info: status %d", resp.StatusCode)
	}
}

func getStatsJSON(t *testing.T, url string, v any) {
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

// TestStandaloneServerRejectsDomainRouting pins the failure mode of
// domain routing against a single-snapshot server: loud 400, not a
// silent answer from the wrong (only) dictionary.
func TestStandaloneServerRejectsDomainRouting(t *testing.T) {
	srv := testServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/v1/match", "/v2/match"} {
		for _, body := range []string{
			`{"query": "indy 4", "domain": "movies"}`,
			`{"query": "indy 4", "domains": ["*"]}`,
			`{"queries": [{"query": "indy 4", "domain": "movies"}]}`,
		} {
			resp, data := postJSON(t, ts.URL+path, body)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "multi-domain") {
				t.Errorf("%s body %s: status %d, %s", path, body, resp.StatusCode, data)
			}
		}
	}

	// The WFP1 path reports the same refusals per item, word for word.
	const hint = "requires a multi-domain server (matchd -snapshot name=path)"
	if got := srv.DoItem(match.Request{Query: "indy 4"}, []string{"*"}); got.Response != nil || got.Error != "domains "+hint {
		t.Errorf("DoItem with domains: %+v", got)
	}
	if got := srv.DoItem(match.Request{Query: "indy 4", Domain: "movies"}, nil); got.Response != nil ||
		got.Error != `domain "movies": domain routing `+hint {
		t.Errorf("DoItem with a pinned domain: %+v", got)
	}
	if got := srv.DoItem(match.Request{Query: "indy 4"}, nil); got.Error != "" || len(got.Matches) != 1 {
		t.Errorf("plain DoItem: %+v", got)
	}
}

// TestBatchPinsOneGenerationPerDomain is the deterministic proof of the
// request-scoped pin: a request resolves its routing and loads every
// domain's generation once, so an Install that lands after that — here,
// in both domains, to a dictionary that resolves the probe to the other
// entity — cannot change what any item of the request is answered from,
// on an exact route or on a federated leg. The next request sees the new
// dictionaries.
func TestBatchPinsOneGenerationPerDomain(t *testing.T) {
	reg := NewRegistry(Config{CacheSize: 16})
	var servers []*Server
	for _, name := range []string{"a", "b"} {
		srv, err := reg.Add(name, probeSnapshot(0), SnapshotMeta{})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
	}
	probe := match.Request{Query: "probe target tickets"}
	items := []match.Request{probe, probe, probe}
	items[0].Domain, items[1].Domain = "a", "b" // exact routes; items[2] federates

	before := 0 // the entity the pinned dictionaries resolve the probe to
	for _, domains := range [][]string{nil, {"b", "a"}} {
		rt, err := reg.pin(domains)
		if err != nil {
			t.Fatal(err)
		}
		for _, srv := range servers {
			gen, err := srv.Prepare(probeSnapshot(1-before), SnapshotMeta{})
			if err != nil {
				t.Fatal(err)
			}
			srv.Install(gen)
		}
		for i, it := range items {
			res := reg.routeItem(rt, it)
			if res.Error != "" {
				t.Fatalf("domains %v item %d: %s", domains, i, res.Error)
			}
			want := 1
			if it.Domain == "" {
				want = 2 // one federated leg per domain
			}
			if len(res.Matches) != want {
				t.Fatalf("domains %v item %d: matches %+v", domains, i, res.Matches)
			}
			for _, m := range res.Matches {
				if m.EntityID != before {
					t.Errorf("domains %v item %d (domain %q): entity %d from the post-install generation, want %d",
						domains, i, m.Domain, m.EntityID, before)
				}
			}
		}
		// A request that arrives after the installs pins the new ones.
		before = 1 - before
		res := reg.DoItem(probe, domains)
		if res.Error != "" || len(res.Matches) != 2 {
			t.Fatalf("post-install DoItem: %+v", res)
		}
		for _, m := range res.Matches {
			if m.EntityID != before {
				t.Errorf("post-install request answered entity %d, want %d", m.EntityID, before)
			}
		}
	}
}
