package match

import "fmt"

// Structured attribute rewrite (the /v2 match surface).
//
// The paper's end goal is mapping whole Web queries to structured data;
// entity resolution alone leaves the attribute part of the query —
// "cheap canon 40d lens under $500" — as opaque remainder text. The
// rewrite stage turns remainder tokens into typed predicates against the
// entity table's columns ("price < 500", "band: cheap"). The engine only
// defines the contract here: the vocabulary mining and token parsing live
// in internal/rewrite, injected via SetRewriter so the match package
// never depends on the entity tables.

// Predicate is one typed attribute constraint extracted from the query's
// remainder tokens. Exactly one of Value (numeric columns) and Text
// (categorical columns) is meaningful, selected by Op.
type Predicate struct {
	// Column is the entity-table column the predicate constrains
	// ("price", "year", "megapixels", "zoom", "brand", "genre", ...).
	Column string `json:"column"`
	// Op is the comparison: "eq", "lt", "lte", "gt" or "gte".
	Op string `json:"op"`
	// Value is the numeric operand for numeric columns.
	Value float64 `json:"value,omitempty"`
	// Text is the canonical categorical value for categorical columns
	// ("canon", "adventure") — the vocabulary string, not the query
	// surface ("cannon" still yields Text "canon").
	Text string `json:"text,omitempty"`
	// Unit is the column's canonical unit tag ("usd", "mp", "x"), empty
	// for unitless columns.
	Unit string `json:"unit,omitempty"`
	// Span is the query surface the predicate consumed ("under 500").
	Span string `json:"span"`
	// Start and End are the consumed token window [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
	// Similarity is the Dice trigram similarity for fuzzy-resolved
	// categorical values (0 for exact matches).
	Similarity float64 `json:"similarity,omitempty"`
	// Source records which lexicon produced the predicate: "comparator"
	// (under/over + number), "band" (cheap/premium), "unit" (number +
	// unit token or fused suffix), "value" (exact categorical or
	// discrete numeric value) or "value-fuzzy" (trigram-matched
	// categorical value).
	Source string `json:"source"`
	// Domain is the vertical whose vocabulary produced the predicate,
	// stamped by the serving tier when responses from several domains
	// are federated. Empty outside federated serving.
	Domain string `json:"domain,omitempty"`
}

// AttributeRewriter turns unmatched query tokens into typed predicates.
// Implementations must be safe for concurrent use and deterministic: the
// serving tier runs one rewriter across every request of a generation,
// and equal requests must produce byte-identical responses (they share
// cache entries).
type AttributeRewriter interface {
	// RewriteTokens parses the unused tokens (used[i] == false) into
	// predicates, marking every consumed token in used. minSim, when
	// positive, raises the fuzzy-value acceptance floor. explain, when
	// non-nil, receives one human-readable line per decision. Tokens may
	// alias caller-owned buffers: every string placed in a returned
	// Predicate must be freshly allocated or stable.
	RewriteTokens(tokens []string, used []bool, minSim float64, explain func(format string, args ...any)) []Predicate
}

// SetRewriter attaches the attribute rewriter consulted by requests with
// Rewrite set. A nil rewriter (the default) makes rewrite requests
// degrade gracefully: Attributes stays empty and Residual mirrors
// Remainder.
func (e *Engine) SetRewriter(r AttributeRewriter) { e.rewriter = r }

// Rewriter returns the attached attribute rewriter, nil if none.
func (e *Engine) Rewriter() AttributeRewriter { return e.rewriter }

// rewritePass executes the attribute rewrite stage: predicates over the
// still-unused tokens, then the post-rewrite residual. Runs after
// Remainder is final, so v1 semantics are untouched. Deliberately not
// //websyn:hotpath — the rewrite stage is a v2 feature allowed to
// allocate; the alloc budget gates Rewrite=false classes only. The
// explain closure must capture only the scratch pointer, never the
// matchCtx: a closure over c would make every MatchPrepared
// heap-allocate its context, rewrite requested or not (escape analysis
// is path-insensitive), blowing the zero-alloc budget of the v1 classes.
func (c *matchCtx) rewritePass(resp *Response) {
	e, sc, req := c.e, c.sc, c.req
	if e.rewriter == nil {
		resp.Residual = resp.Remainder
		return
	}
	var explain func(format string, args ...any)
	if req.Explain {
		explain = func(format string, args ...any) {
			sc.trace = append(sc.trace, TraceStep{Stage: "rewrite", Detail: fmt.Sprintf(format, args...)})
		}
	}
	resp.Attributes = e.rewriter.RewriteTokens(sc.tokens, sc.used, req.MinSim, explain)
	resp.Residual = joinUnused(sc.tokens, sc.used)
}

// joinUnused builds the residual: the still-unused tokens joined by
// single spaces, as a freshly allocated string (tokens may alias arena
// bytes; the residual must outlive the scratch).
func joinUnused(tokens []string, used []bool) string {
	n := 0
	for i, t := range tokens {
		if !used[i] {
			n += len(t) + 1
		}
	}
	if n == 0 {
		return ""
	}
	b := make([]byte, 0, n-1)
	for i, t := range tokens {
		if used[i] {
			continue
		}
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, t...)
	}
	return string(b)
}
