package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"websyn/internal/match"
)

// POST /v1/match — the versioned, unified matching endpoint. One shape
// serves single and batch requests:
//
//	{"query": "indy 4 near san fran", "explain": true}
//	{"queries": [{"query": "indy 4"}, {"query": "madagascar2"}], "top_k": 3}
//
// Top-level tuning fields (top_k, min_sim, mode, explain,
// max_span_tokens) act as defaults for every batch item; an item's own
// non-zero fields win. The response is always the batch shape — a single
// query is a batch of one — and errors are per-item, so one malformed
// query cannot fail a 500-query batch:
//
//	{"count": 2, "results": [{...}, {"error": "match: empty query"}]}
//
// Request-level failures (malformed JSON, unknown fields, oversized
// batch) are JSON error objects with a 4xx status. See docs/API.md for
// the full contract.
//
// POST /v2/match is the attribute-aware successor. The request grammar
// is identical (single query or batch, the same tuning fields, the same
// domain routing); the difference is the response: v2 runs the
// structured rewrite stage over the tokens the entity match left
// behind, so each result additionally carries
//
//	"attributes": typed predicates parsed from the remainder
//	              ({column, op, value|text, unit, span, source, ...}),
//	"residual":   the remainder minus the spans the predicates consumed.
//
// "cheap canon 40d lens under $500" thus resolves to the Canon 40D
// entity plus price<=q1 (band "cheap") and price<500 (comparator
// "under 500"), with residual "lens". Every other field is bit-for-bit
// the v1 shape, which is what makes the migration mechanical; see
// docs/API.md#v1v2-migration.
//
// v1 stays frozen: the rewrite stage only runs when the request arrived
// through /v2 (Rewrite has no JSON tag, so the endpoint is the only
// switch), and /v1/match responses are byte-identical with or without a
// vocabulary loaded.

// V1Request is the body of POST /v1/match: one match.Request, optionally
// carrying a batch. Unknown fields are rejected.
type V1Request struct {
	match.Request
	// Queries, when non-empty, makes the request a batch; the embedded
	// top-level fields (except Query, which must then be empty) become
	// per-item defaults.
	Queries []match.Request `json:"queries,omitempty"`
	// Domains fans items out across several registered domains and
	// merges the answers into one federated response per item: an
	// explicit list, or ["*"] for every domain. Mutually exclusive with
	// the top-level domain field; an item's own domain field overrides
	// the fan-out with an exact route. Only a named registry accepts it
	// — the standalone shape rejects domain routing.
	Domains []string `json:"domains,omitempty"`
}

// V1Response is the body of a successful POST /v1/match.
type V1Response struct {
	Count   int        `json:"count"`
	Results []V1Result `json:"results"`
}

// V1Result is one query's outcome: an engine response, or a per-item
// error (never both).
type V1Result struct {
	*match.Response
	// Cached reports whether the response came from the request cache;
	// a cached response carries the Timing of the request that computed
	// it.
	Cached bool `json:"cached,omitempty"`
	// Error is the per-item failure (empty query, bad mode, ...).
	Error string `json:"error,omitempty"`
}

// v1Error is the JSON error shape for request-level failures.
type v1Error struct {
	Error string `json:"error"`
}

// WriteV1Error writes a request-level /v1/match failure in the JSON
// error shape. Exported for front ends (the fleet router) that must
// speak the exact same error grammar as the serving tier.
func WriteV1Error(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeJSON(w, v1Error{Error: fmt.Sprintf(format, args...)})
}

// inheritDefaults fills an item's zero fields from the batch-level
// request.
func inheritDefaults(item, top match.Request) match.Request {
	if item.TopK == 0 {
		item.TopK = top.TopK
	}
	if item.MinSim == 0 {
		item.MinSim = top.MinSim
	}
	if item.Mode == "" {
		item.Mode = top.Mode
	}
	if item.MaxSpanTokens == 0 {
		item.MaxSpanTokens = top.MaxSpanTokens
	}
	if item.Domain == "" {
		item.Domain = top.Domain
	}
	item.Explain = item.Explain || top.Explain
	return item
}

// maxBodyBytes scales the request-body cap with the batch limit (queries
// are short; 512 bytes each is generous) so a raised -max-batch is not
// silently capped by a byte limit.
func maxBodyBytes(maxBatch int) int64 {
	return int64(1<<20) + 512*int64(maxBatch)
}

// endOfBody reports anything but whitespace after the one JSON value dec
// has decoded: a second value or trailing garbage makes the body
// malformed, not a request for its first value.
func endOfBody(dec *json.Decoder) error {
	tok, err := dec.Token()
	switch {
	case err == io.EOF:
		return nil
	case err != nil:
		return err
	default:
		return fmt.Errorf("unexpected %v after the request object", tok)
	}
}

// ParseV1 reads a POST /v1/match or /v2/match body into the items to
// answer and the batch-level domains fan-out: decode (unknown fields
// rejected, body capped by the batch limit), the domain/domains
// exclusivity check, batch expansion with the top-level fields as
// per-item defaults, and — with rewrite, the /v2 surface — the Rewrite
// stamp on every item. On failure it has written the 4xx. The registry
// and the fleet router both start a request here: one request grammar.
func ParseV1(w http.ResponseWriter, r *http.Request, maxBatch int, rewrite bool) (items []match.Request, domains []string, ok bool) {
	fail := func(status int, format string, args ...any) ([]match.Request, []string, bool) {
		WriteV1Error(w, status, format, args...)
		return nil, nil, false
	}
	var req V1Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes(maxBatch)))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		err = endOfBody(dec)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fail(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		}
		return fail(http.StatusBadRequest, "bad JSON body: %s", err)
	}
	items = req.Queries
	switch {
	case req.Domain != "" && len(req.Domains) > 0:
		return fail(http.StatusBadRequest, "domain and domains are mutually exclusive")
	case len(items) == 0 && req.Query == "":
		return fail(http.StatusBadRequest, "set query, or queries for a batch")
	case len(items) == 0:
		items = []match.Request{req.Request}
	case req.Query != "":
		return fail(http.StatusBadRequest, "query and queries are mutually exclusive")
	case len(items) > maxBatch:
		return fail(http.StatusRequestEntityTooLarge, "batch of %d exceeds limit %d", len(items), maxBatch)
	}
	for i := range items {
		items[i] = inheritDefaults(items[i], req.Request)
		items[i].Rewrite = rewrite
	}
	return items, req.Domains, true
}
