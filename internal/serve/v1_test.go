package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"websyn/internal/match"
	"websyn/internal/textnorm"
)

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

func TestV1MatchSingle(t *testing.T) {
	ts := httptest.NewServer(testServer(Config{CacheSize: 16}).Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/v1/match", `{"query": "indy 4 near san fran", "explain": true}`)
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
	if len(r.Matches) != 1 || r.Matches[0].EntityID != 0 || r.Matches[0].Method != match.MethodTrie {
		t.Fatalf("matches = %+v", r.Matches)
	}
	if r.Remainder != "near san fran" {
		t.Fatalf("remainder = %q", r.Remainder)
	}
	if len(r.Trace) == 0 {
		t.Fatal("explain produced no trace")
	}
	if r.Timing.TotalMicros <= 0 {
		t.Fatalf("timing = %+v", r.Timing)
	}
	if r.Cached {
		t.Fatal("first request claimed a cache hit")
	}

	// Identical request again: served from the cache keyed on the full
	// request.
	_, data2 := postJSON(t, ts.URL+"/v1/match", `{"query": "indy 4 near san fran", "explain": true}`)
	var vr2 V1Response
	if err := json.Unmarshal(data2, &vr2); err != nil {
		t.Fatal(err)
	}
	if !vr2.Results[0].Cached {
		t.Fatal("second identical request missed the cache")
	}

	// Same query, different options: a distinct cache entry.
	_, data3 := postJSON(t, ts.URL+"/v1/match", `{"query": "indy 4 near san fran", "explain": true, "top_k": 2}`)
	var vr3 V1Response
	if err := json.Unmarshal(data3, &vr3); err != nil {
		t.Fatal(err)
	}
	if vr3.Results[0].Cached {
		t.Fatal("different top_k shared a cache entry")
	}
}

func TestV1MatchSpanFuzzy(t *testing.T) {
	ts := httptest.NewServer(testServer(Config{}).Handler())
	defer ts.Close()

	// "kristol" is edit distance 3 from "crystal": the trie cannot bridge
	// it, the trigram index can.
	_, data := postJSON(t, ts.URL+"/v1/match", `{"query": "kingdom of the kristol skull tickets"}`)
	var vr V1Response
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	r := vr.Results[0]
	if r.Error != "" || len(r.Matches) != 1 {
		t.Fatalf("result = %+v", r)
	}
	m := r.Matches[0]
	if m.Method != match.MethodSpanFuzzy || m.EntityID != 0 || m.Span != "kingdom of the crystal skull" {
		t.Fatalf("span match = %+v", m)
	}
	if r.Remainder != "tickets" {
		t.Fatalf("remainder = %q", r.Remainder)
	}

	// mode=segment must reproduce the legacy behavior: no span resolution.
	_, data = postJSON(t, ts.URL+"/v1/match", `{"query": "kingdom of the kristol skull tickets", "mode": "segment"}`)
	var seg V1Response
	if err := json.Unmarshal(data, &seg); err != nil {
		t.Fatal(err)
	}
	if len(seg.Results[0].Matches) != 0 {
		t.Fatalf("segment mode resolved the span: %+v", seg.Results[0].Matches)
	}
}

func TestV1MatchBatch(t *testing.T) {
	ts := httptest.NewServer(testServer(Config{}).Handler())
	defer ts.Close()

	body := `{
		"top_k": 3,
		"queries": [
			{"query": "indy 4 tickets"},
			{"query": ""},
			{"query": "madagascar 2", "mode": "fuzzy"},
			{"query": "zzz qqq"}
		]
	}`
	resp, data := postJSON(t, ts.URL+"/v1/match", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var vr V1Response
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Count != 4 || len(vr.Results) != 4 {
		t.Fatalf("count %d, %d results", vr.Count, len(vr.Results))
	}
	if vr.Results[0].Error != "" || vr.Results[0].Matches[0].EntityID != 0 {
		t.Fatalf("result 0 = %+v", vr.Results[0])
	}
	if vr.Results[1].Error == "" {
		t.Fatal("empty query produced no per-item error")
	}
	if vr.Results[1].Response != nil && vr.Results[1].Response.Query != "" {
		t.Fatalf("errored item carries a response: %+v", vr.Results[1])
	}
	if len(vr.Results[2].Matches) == 0 || vr.Results[2].Matches[0].Method != match.MethodFuzzy {
		t.Fatalf("per-item mode override ignored: %+v", vr.Results[2])
	}
	if len(vr.Results[3].Matches) != 0 || vr.Results[3].Remainder != "zzz qqq" {
		t.Fatalf("no-match result = %+v", vr.Results[3])
	}
}

func TestV1MatchErrorPaths(t *testing.T) {
	srv := NewServer(testSnapshot(), Config{MaxBatch: 3})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed json", `{"query": `, http.StatusBadRequest},
		{"unknown field", `{"query": "indy 4", "frobnicate": true}`, http.StatusBadRequest},
		{"no query at all", `{}`, http.StatusBadRequest},
		{"query and queries", `{"query": "x", "queries": [{"query": "y"}]}`, http.StatusBadRequest},
		{"oversized batch", `{"queries": [{"query":"a"},{"query":"b"},{"query":"c"},{"query":"d"}]}`,
			http.StatusRequestEntityTooLarge},
		{"wrong type", `{"query": 42}`, http.StatusBadRequest},
		{"second value", `{"query": "a"}{"query": "b"}`, http.StatusBadRequest},
		{"trailing garbage", `{"query": "a"} garbage`, http.StatusBadRequest},
		{"trailing brace", `{"query": "a"}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+"/v1/match", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
			continue
		}
		var e v1Error
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not a JSON error object", tc.name, data)
		}
	}

	// Whitespace after the request object is not trailing data.
	if resp, data := postJSON(t, ts.URL+"/v1/match", "{\"query\": \"indy 4\"}\r\n\t \n"); resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace: status %d (%s)", resp.StatusCode, data)
	}

	// Per-item validation errors surface in-band, not as HTTP failures.
	resp, data := postJSON(t, ts.URL+"/v1/match",
		`{"queries": [{"query": "x", "mode": "telepathy"}, {"query": "x", "top_k": -2}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("per-item errors escalated to status %d", resp.StatusCode)
	}
	var vr V1Response
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	for i, r := range vr.Results {
		if r.Error == "" {
			t.Errorf("item %d: invalid request produced no error", i)
		}
	}

	// Oversized body.
	huge := fmt.Sprintf(`{"query": %q}`, strings.Repeat("x ", 1<<20))
	resp, _ = postJSON(t, ts.URL+"/v1/match", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d", resp.StatusCode)
	}

	// Wrong method.
	getResp, err := http.Get(ts.URL + "/v1/match")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/match: status %d", getResp.StatusCode)
	}
}

// ---- Legacy compatibility ----

// oldMatchResult replicates the pre-engine GET /match logic straight
// from the primitives: trie segmentation plus entity-table filtering.
func oldMatchResult(snap *Snapshot, query string, cached bool) MatchResult {
	seg := snap.Dict.SegmentTokens(textnorm.Tokenize(query))
	res := MatchResult{Query: seg.Query, Remainder: seg.Remainder, Cached: cached}
	for _, m := range seg.Matches {
		if m.EntityID < 0 || m.EntityID >= len(snap.Canonicals) {
			continue
		}
		res.Matches = append(res.Matches, MatchedSpan{
			Canonical: snap.Canonicals[m.EntityID],
			EntityID:  m.EntityID,
			Span:      m.Text,
			Score:     m.Score,
			Source:    m.Source,
			Corrected: m.Corrected,
		})
	}
	return res
}

// oldFuzzyResult replicates the pre-engine GET /fuzzy logic from a flat
// trigram index (identical results to the server's sharded one).
func oldFuzzyResult(snap *Snapshot, fi *match.FuzzyIndex, query string, limit int) FuzzyResult {
	res := FuzzyResult{Query: query}
	for _, h := range fi.Lookup(query, limit) {
		if len(h.Entries) == 0 {
			continue
		}
		id := h.Entries[0].EntityID
		if id < 0 || id >= len(snap.Canonicals) {
			continue
		}
		res.Hits = append(res.Hits, FuzzyHit{
			Text:       h.Text,
			Similarity: h.Similarity,
			Canonical:  snap.Canonicals[id],
			EntityID:   id,
		})
	}
	return res
}

// encodeBody renders a value exactly as the HTTP handlers do.
func encodeBody(t *testing.T, v any) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeJSON(rec, v)
	return rec.Body.Bytes()
}

func get(t *testing.T, url string) (int, []byte) {
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
	return resp.StatusCode, data
}

// TestLegacyMatchByteIdentical proves the /match adapter over the engine
// returns byte-identical payloads to the pre-redesign handler, including
// the cached flag on repeats.
func TestLegacyMatchByteIdentical(t *testing.T) {
	snap := testSnapshot()
	ts := httptest.NewServer(NewServer(snap, Config{CacheSize: 32}).Handler())
	defer ts.Close()

	queries := []string{
		"indy 4 near san francisco",
		"madagascar",          // ambiguous string, best entry wins
		"madagscar 2 trailer", // token typo, corrected flag
		"nothing here at all", // no match: "matches":null
		"!!!",                 // normalizes to nothing
		"Indiana Jones and the Kingdom of the Crystal Skull",
	}
	for _, q := range queries {
		for repeat, cached := range []bool{false, true} {
			status, got := get(t, ts.URL+"/match?q="+strings.ReplaceAll(q, " ", "+"))
			if status != http.StatusOK {
				t.Fatalf("match %q: status %d", q, status)
			}
			want := encodeBody(t, oldMatchResult(snap, q, cached))
			if !bytes.Equal(got, want) {
				t.Errorf("match %q (repeat %d) diverged:\n got %s\nwant %s", q, repeat, got, want)
			}
		}
	}
}

// TestLegacyBatchByteIdentical proves the /match/batch adapter payload is
// unchanged.
func TestLegacyBatchByteIdentical(t *testing.T) {
	snap := testSnapshot()
	ts := httptest.NewServer(NewServer(snap, Config{CacheSize: -1}).Handler())
	defer ts.Close()

	queries := []string{"indy 4 tickets", "madagascar 2", "nothing here", "watch indiana jones 4"}
	body, _ := json.Marshal(BatchRequest{Queries: queries})
	resp, err := http.Post(ts.URL+"/match/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	want := BatchResponse{Count: len(queries)}
	for _, q := range queries {
		want.Results = append(want.Results, oldMatchResult(snap, q, false))
	}
	if wantBytes := encodeBody(t, want); !bytes.Equal(got, wantBytes) {
		t.Errorf("batch diverged:\n got %s\nwant %s", got, wantBytes)
	}
}

// TestLegacyFuzzyByteIdentical proves the /fuzzy adapter payload is
// unchanged.
func TestLegacyFuzzyByteIdentical(t *testing.T) {
	snap := testSnapshot()
	ts := httptest.NewServer(NewServer(snap, Config{}).Handler())
	defer ts.Close()
	fi := snap.Dict.NewFuzzyIndex(snap.MinSim)

	queries := []string{"madagascar2", "indianna jones", "zzz qqq vvv", "!!!", "Madagascar"}
	for _, q := range queries {
		status, got := get(t, ts.URL+"/fuzzy?q="+strings.ReplaceAll(q, " ", "+"))
		if status != http.StatusOK {
			t.Fatalf("fuzzy %q: status %d", q, status)
		}
		want := encodeBody(t, oldFuzzyResult(snap, fi, q, 5))
		if !bytes.Equal(got, want) {
			t.Errorf("fuzzy %q diverged:\n got %s\nwant %s", q, got, want)
		}
	}
}
