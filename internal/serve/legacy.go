package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"websyn/internal/match"
)

// The legacy compatibility surface, whole: the pre-v1 JSON shapes, the
// adapters and handlers that keep them byte-for-byte by converting
// engine responses, and the deprecation shim they are mounted behind.
// New clients use POST /v1/match or /v2/match; after the sunset date
// below, removal is this file plus its three routes in Registry.Mount.

// MatchResult is the JSON shape of one matched query (GET /match, and
// one element of POST /match/batch).
type MatchResult struct {
	Query     string        `json:"query"`
	Matches   []MatchedSpan `json:"matches"`
	Remainder string        `json:"remainder"`
	// Cached reports whether this response came from the request cache.
	Cached bool `json:"cached,omitempty"`
}

// MatchedSpan is one entity mention inside a matched query.
type MatchedSpan struct {
	Canonical string  `json:"canonical"`
	EntityID  int     `json:"entity_id"`
	Span      string  `json:"span"`
	Score     float64 `json:"score"`
	Source    string  `json:"source"`
	Corrected bool    `json:"corrected,omitempty"`
}

// legacyMatchResult converts an engine response to the legacy /match
// shape.
func legacyMatchResult(res match.Response, cached bool) MatchResult {
	out := MatchResult{Query: res.Query, Remainder: res.Remainder, Cached: cached}
	for _, m := range res.Matches {
		out.Matches = append(out.Matches, MatchedSpan{
			Canonical: m.Canonical,
			EntityID:  m.EntityID,
			Span:      m.Span,
			Score:     m.Score,
			Source:    m.Source,
			Corrected: m.Corrected,
		})
	}
	return out
}

// legacyMatch segments one query against the dictionary in the legacy
// (segmentation-only) mode, consulting the request cache first.
func (s *Server) legacyMatch(query string) MatchResult {
	return s.matchGen(s.gen.Load(), query)
}

// matchGen is legacyMatch pinned to one generation (see doGen).
func (s *Server) matchGen(g *generation, query string) MatchResult {
	res, cached, err := s.doGen(g, match.Request{Query: query, Mode: match.ModeSegment, TopK: 1})
	if err != nil {
		// Only an empty query reaches here; the legacy shape for it is an
		// empty segmentation.
		return MatchResult{}
	}
	return legacyMatchResult(res, cached)
}

// legacyBatch segments many queries with a bounded worker pool, returning
// results in input order. The whole batch runs against one generation:
// a hot reload mid-batch cannot mix dictionaries within one response.
func (s *Server) legacyBatch(queries []string) []MatchResult {
	g := s.gen.Load()
	out := make([]MatchResult, len(queries))
	runPool(s.reg.cfg.BatchWorkers, len(queries), func(i int) {
		out[i] = s.matchGen(g, queries[i])
	})
	return out
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	s.matchReqs.Add(1)
	t0 := time.Now()
	res := s.legacyMatch(q)
	s.matchLat.observe(time.Since(t0))
	writeJSON(w, res)
}

// BatchRequest is the JSON body of POST /match/batch.
type BatchRequest struct {
	Queries []string `json:"queries"`
}

// BatchResponse is the JSON shape of POST /match/batch.
type BatchResponse struct {
	Count   int           `json:"count"`
	Results []MatchResult `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes(s.reg.cfg.MaxBatch)))
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad JSON body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Queries) == 0 {
		http.Error(w, "empty queries array", http.StatusBadRequest)
		return
	}
	if len(req.Queries) > s.reg.cfg.MaxBatch {
		http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Queries), s.reg.cfg.MaxBatch),
			http.StatusRequestEntityTooLarge)
		return
	}
	s.batchReqs.Add(1)
	s.batchQueries.Add(uint64(len(req.Queries)))
	t0 := time.Now()
	results := s.legacyBatch(req.Queries)
	s.batchLat.observe(time.Since(t0))
	writeJSON(w, BatchResponse{Count: len(results), Results: results})
}

// FuzzyResult is the JSON shape of /fuzzy.
type FuzzyResult struct {
	Query string     `json:"query"`
	Hits  []FuzzyHit `json:"hits"`
}

// FuzzyHit is one whole-string fuzzy hit.
type FuzzyHit struct {
	Text       string  `json:"text"`
	Similarity float64 `json:"similarity"`
	Canonical  string  `json:"canonical"`
	EntityID   int     `json:"entity_id"`
}

func (s *Server) handleFuzzy(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	s.fuzzyReqs.Add(1)
	res := FuzzyResult{Query: q}
	limit := s.reg.cfg.FuzzyLimit
	if limit > match.MaxTopK {
		limit = match.MaxTopK
	}
	eres, _, err := s.doGen(s.gen.Load(), match.Request{Query: q, Mode: match.ModeFuzzy, TopK: limit})
	if err == nil {
		for _, m := range eres.Matches {
			res.Hits = append(res.Hits, FuzzyHit{
				Text:       m.Span,
				Similarity: m.Similarity,
				Canonical:  m.Canonical,
				EntityID:   m.EntityID,
			})
		}
	}
	writeJSON(w, res)
}

// Deprecation metadata stamped on the pre-v1 adapter endpoints (/match,
// /match/batch, /fuzzy). The body bytes are untouched — existing
// clients keep working — but conforming clients see the sunset horizon
// and the successor surface.
const (
	// legacyDeprecation is the RFC 9745 Deprecation header value: the
	// moment the legacy surface was declared deprecated
	// (2026-08-01T00:00:00Z), as a unix timestamp.
	legacyDeprecation = "@1785542400"
	// legacySunset is the RFC 8594 Sunset header value: the earliest
	// date the legacy endpoints may be removed.
	legacySunset = "Tue, 01 Jun 2027 00:00:00 GMT"
	// legacySuccessor points clients at the versioned replacement.
	legacySuccessor = `</v2/match>; rel="successor-version"`
)

// deprecated wraps a legacy handler with the deprecation shim: identical
// response bytes, plus the Deprecation/Sunset/Link header triple.
func deprecated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hdr := w.Header()
		hdr.Set("Deprecation", legacyDeprecation)
		hdr.Set("Sunset", legacySunset)
		hdr.Set("Link", legacySuccessor)
		h(w, r)
	}
}
