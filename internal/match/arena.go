package match

import (
	"errors"
	"fmt"
	"time"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// The match pipeline.
//
// Every request — served or ad hoc — runs the stages in this file over a
// reusable per-request Scratch arena: the normalized query is built once
// into a byte buffer, every token, span and remainder string is an
// unsafe view into that buffer (or a stable dictionary string), and all
// intermediate and result slices are reslices of scratch-owned arrays.
// A steady-state exact match performs zero heap allocations.
//
// The serving tier pools Scratch per generation and routes through
// MatchScratch; Engine.Match runs the same stages over a fresh Scratch
// and clones the result out. The differential suite (arena_test.go)
// compares the two, which is what catches stale-buffer and aliasing
// bugs in arena reuse.

// Scratch is the reusable per-request arena behind Engine.MatchScratch.
// A Scratch may be reused across requests but never concurrently; the
// serving tier pools them per generation. The zero value is not usable —
// call NewScratch.
type Scratch struct {
	norm   []byte  // normalized query bytes: tokens joined by single spaces
	qnorm  string  // unsafe view of norm
	tokOff []int32 // token i spans norm[tokOff[2i]:tokOff[2i+1]]
	tokens []string
	used   []bool

	matches  []SpanMatch
	altRange [][2]int32 // per-match [start,end) into alts, fixed up at the end
	alts     []Alternate
	merged   []SpanMatch
	trace    []TraceStep
	rest     []byte // remainder bytes

	// Fuzzy-lookup scratch.
	qg      []queryGram
	cands   []scoredHit
	heap    []scoredHit
	hits    []arenaHit
	seen    []int   // entity IDs already emitted for one span
	entries []Entry // sorted entry copies for alternate listing

	resp Response
}

// NewScratch returns a ready-to-use arena sized for typical queries; all
// buffers grow on demand and keep their capacity across requests.
func NewScratch() *Scratch {
	return &Scratch{
		norm:   make([]byte, 0, 128),
		tokOff: make([]int32, 0, 32),
		tokens: make([]string, 0, 16),
		used:   make([]bool, 0, 16),
	}
}

// unsafeString views a byte slice as a string without copying. The bytes
// must not be mutated while the string is reachable — Scratch guarantees
// that by only rewriting its buffers on the next request.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Tokenize fills the arena with query's normalized form: the exact
// token sequence of textnorm.Tokenize(query), materialized once as a
// single space-joined byte buffer with per-token views. It returns the
// token views; they (and every string a subsequent MatchPrepared
// response carries) are valid until the scratch is reused.
//
//websyn:hotpath
func (sc *Scratch) Tokenize(query string) []string {
	sc.norm = sc.norm[:0]
	sc.tokOff = sc.tokOff[:0]
	inTok := false
	for _, r := range query {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if !inTok {
				if len(sc.tokOff) > 0 {
					sc.norm = append(sc.norm, ' ')
				}
				sc.tokOff = append(sc.tokOff, int32(len(sc.norm)))
				inTok = true
			}
			sc.norm = utf8.AppendRune(sc.norm, unicode.ToLower(r))
		} else if inTok {
			sc.tokOff = append(sc.tokOff, int32(len(sc.norm)))
			inTok = false
		}
	}
	if inTok {
		sc.tokOff = append(sc.tokOff, int32(len(sc.norm)))
	}
	// Token views are built only after norm stops growing: append may
	// reallocate the buffer, which would strand earlier views.
	sc.qnorm = unsafeString(sc.norm)
	sc.tokens = sc.tokens[:0]
	for i := 0; i+1 < len(sc.tokOff); i += 2 {
		sc.tokens = append(sc.tokens, sc.qnorm[sc.tokOff[i]:sc.tokOff[i+1]])
	}
	return sc.tokens
}

// Norm returns the normalized query built by the last Tokenize — the
// space-joined token sequence, aliasing arena bytes.
func (sc *Scratch) Norm() string { return sc.qnorm }

// span returns the query surface of tokens [i, j) — a substring of the
// normalized query, since tokens are space-joined in the arena.
//
//websyn:hotpath
func (sc *Scratch) span(i, j int) string {
	return sc.qnorm[sc.tokOff[2*i]:sc.tokOff[2*(j-1)+1]]
}

// MatchScratch answers one request through the arena: the response and
// everything it references live in sc. The returned response is valid
// until the next call using the same scratch; callers that retain it
// must copy it out first (CloneResponse).
//
//websyn:hotpath
func (e *Engine) MatchScratch(req Request, sc *Scratch) (*Response, error) {
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	sc.Tokenize(req.Query)
	return e.MatchPrepared(req, sc)
}

// MatchPrepared is MatchScratch for callers that already tokenized the
// query into sc — e.g. a serving tier that called sc.Tokenize(req.Query)
// to build its cache key. sc must hold exactly req.Query's tokenization.
//
//websyn:hotpath
func (e *Engine) MatchPrepared(req Request, sc *Scratch) (*Response, error) {
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if req.Mode == ModeFuzzy && e.fuzzy == nil {
		return nil, errors.New("match: fuzzy mode unavailable: engine has no trigram index")
	}
	start := time.Now()
	resp := &sc.resp
	*resp = Response{}
	sc.matches = sc.matches[:0]
	sc.altRange = sc.altRange[:0]
	sc.alts = sc.alts[:0]
	sc.trace = sc.trace[:0]
	if len(sc.tokens) == 0 {
		resp.Timing.TotalMicros = micros(time.Since(start))
		return resp, nil
	}

	resp.Query = sc.qnorm
	c := matchCtx{e: e, req: req, sc: sc}

	if req.Mode == ModeFuzzy {
		t0 := time.Now()
		c.wholeFuzzy()
		resp.Timing.FuzzyMicros = micros(time.Since(t0))
		c.fixAlternates()
		if len(sc.matches) > 0 {
			resp.Matches = sc.matches
		} else {
			resp.Remainder = resp.Query
		}
		if req.Rewrite && len(sc.matches) == 0 {
			// Whole-query fuzzy consumed nothing: the full token sequence
			// is remainder, so all of it is rewrite fodder.
			sc.used = sc.used[:0]
			for range sc.tokens {
				sc.used = append(sc.used, false)
			}
			c.rewritePass(resp)
		}
		resp.Trace = c.doneTrace()
		resp.Timing.TotalMicros = micros(time.Since(start))
		return resp, nil
	}

	sc.used = sc.used[:0]
	for range sc.tokens {
		sc.used = append(sc.used, false)
	}
	t0 := time.Now()
	c.segment()
	resp.Timing.SegmentMicros = micros(time.Since(t0))
	nTrie := len(sc.matches)

	if req.Mode == ModeSpan && e.fuzzy != nil {
		t1 := time.Now()
		c.spanPass()
		resp.Timing.FuzzyMicros = micros(time.Since(t1))
	}
	c.fixAlternates()
	switch {
	case len(sc.matches) == 0:
		resp.Matches = nil
	case len(sc.matches) == nTrie:
		resp.Matches = sc.matches
	default:
		resp.Matches = mergeInto(&sc.merged, sc.matches[:nTrie], sc.matches[nTrie:])
	}

	sc.rest = sc.rest[:0]
	for i, tok := range sc.tokens {
		if !sc.used[i] {
			if len(sc.rest) > 0 {
				sc.rest = append(sc.rest, ' ')
			}
			sc.rest = append(sc.rest, tok...)
		}
	}
	resp.Remainder = unsafeString(sc.rest)
	if req.Rewrite {
		c.rewritePass(resp)
	}
	resp.Trace = c.doneTrace()
	resp.Timing.TotalMicros = micros(time.Since(start))
	return resp, nil
}

// CloneResponse deep-copies an arena-backed response into independent
// heap memory: result slices are copied, and every string that may alias
// scratch bytes — Query, Remainder, Span, Alternate.Text — is cloned.
// (Canonical, Source, Method, and Trace details are stable heap strings
// by construction and are shared.) The serving tier uses this to detach
// a response before caching it or returning it across the arena's
// lifetime.
func CloneResponse(r *Response) Response {
	out := *r
	out.Query = cloneString(r.Query)
	out.Remainder = cloneString(r.Remainder)
	out.Residual = cloneString(r.Residual)
	if r.Attributes != nil {
		out.Attributes = append([]Predicate(nil), r.Attributes...)
		for i := range out.Attributes {
			out.Attributes[i].Span = cloneString(out.Attributes[i].Span)
		}
	}
	if r.Matches != nil {
		out.Matches = append([]SpanMatch(nil), r.Matches...)
		for i := range out.Matches {
			m := &out.Matches[i]
			m.Span = cloneString(m.Span)
			if m.Alternates != nil {
				m.Alternates = append([]Alternate(nil), m.Alternates...)
				for j := range m.Alternates {
					m.Alternates[j].Text = cloneString(m.Alternates[j].Text)
				}
			}
		}
	}
	if r.Trace != nil {
		out.Trace = append([]TraceStep(nil), r.Trace...)
	}
	return out
}

func cloneString(s string) string {
	if s == "" {
		return ""
	}
	b := make([]byte, len(s))
	copy(b, s)
	return string(b)
}

// matchCtx threads one arena request through the pass methods without
// closure allocations.
type matchCtx struct {
	e   *Engine
	req Request
	sc  *Scratch
}

// trace appends an explain step. Callers must guard with c.req.Explain
// so the variadic slice is never materialized on the non-explain path.
func (c *matchCtx) trace(stage, format string, args ...any) {
	c.sc.trace = append(c.sc.trace, TraceStep{Stage: stage, Detail: fmt.Sprintf(format, args...)})
}

// doneTrace returns the accumulated trace, nil when empty: a response
// never carries an empty non-nil trace slice.
func (c *matchCtx) doneTrace() []TraceStep {
	if len(c.sc.trace) == 0 {
		return nil
	}
	return c.sc.trace
}

// segment is the trie stage: one greedy left-to-right pass taking the
// longest dictionary span at each position (Dictionary.SegmentTokens is
// its reference), marking consumed tokens and emitting matches with
// their alternate ranges.
//
//websyn:hotpath
func (c *matchCtx) segment() {
	sc := c.sc
	for start := 0; start < len(sc.tokens); start++ {
		node, bestEnd, corrected := c.e.dict.longestFrom(sc.tokens, start)
		if bestEnd < 0 {
			continue
		}
		for i := start; i < bestEnd; i++ {
			sc.used[i] = true
		}
		spanStart := start
		start = bestEnd - 1
		best := bestEntryOf(node.entries)
		// A matched span consumes its tokens even when the match itself is
		// dropped for resolving outside the entity table — they are
		// dictionary mentions, not remainder (and not span-fuzzy fodder).
		if !c.e.validEntity(best.EntityID) {
			continue
		}
		sm := SpanMatch{
			EntityID:  best.EntityID,
			Canonical: c.e.canonical(best.EntityID),
			Span:      sc.span(spanStart, bestEnd),
			Start:     spanStart,
			End:       bestEnd,
			Score:     best.Score,
			Source:    best.Source,
			Method:    MethodTrie,
			Corrected: corrected,
		}
		if corrected {
			sm.Method = MethodTrieTypo
		}
		altStart := int32(len(sc.alts))
		// Alternates: the span's other dictionary entries, best first. A
		// corrected span's surface text is not a dictionary string, so it
		// has no direct lookup.
		if c.req.TopK > 1 && !corrected {
			for _, alt := range sortedEntries(sc, node.entries) {
				if int(int32(len(sc.alts))-altStart) >= c.req.TopK-1 {
					break
				}
				if alt.EntityID == best.EntityID || !c.e.validEntity(alt.EntityID) {
					continue
				}
				sc.alts = append(sc.alts, Alternate{
					EntityID:  alt.EntityID,
					Canonical: c.e.canonical(alt.EntityID),
					Text:      sm.Span,
					Score:     alt.Score,
				})
			}
		}
		sc.matches = append(sc.matches, sm)
		sc.altRange = append(sc.altRange, [2]int32{altStart, int32(len(sc.alts))})
		if c.req.Explain {
			//websyn:ignore hotpathalloc trace is Explain-gated diagnostics, off the steady-state path
			c.trace("segment", "span %q [%d,%d) -> entity %d %q (score %.3g, %s, %s)",
				sm.Span, sm.Start, sm.End, sm.EntityID, sm.Canonical, sm.Score, sm.Source, sm.Method)
		}
	}
}

// bestEntryOf returns the winning entry: highest score, ties to the
// lowest entity ID — the order Dictionary.Lookup sorts by.
//
//websyn:hotpath
func bestEntryOf(entries []Entry) Entry {
	best := entries[0]
	for _, e := range entries[1:] {
		if e.Score > best.Score || (e.Score == best.Score && e.EntityID < best.EntityID) {
			best = e
		}
	}
	return best
}

// sortedEntries copies a node's entries into the scratch and sorts them
// like Dictionary.Lookup (score desc, entity ID asc) without touching
// the shared trie node. Entry lists are tiny; insertion sort suffices.
//
//websyn:hotpath
func sortedEntries(sc *Scratch, entries []Entry) []Entry {
	out := sc.entries[:0]
	out = append(out, entries...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && entryLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	sc.entries = out
	return out
}

// entryLess orders entries score-descending, entity-ID-ascending.
//
//websyn:hotpath
func entryLess(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.EntityID < b.EntityID
}

// wholeFuzzy is ModeFuzzy: the whole query against the trigram index.
//
//websyn:hotpath
func (c *matchCtx) wholeFuzzy() {
	sc := c.sc
	nTokens := len(sc.tokens)
	emitted := false
	for _, h := range c.e.fuzzy.lookupArena(sc, sc.qnorm, c.req.TopK) {
		if !h.ok || !c.e.validEntity(h.best.EntityID) {
			continue
		}
		if c.req.MinSim > 0 && h.sim < c.req.MinSim {
			continue
		}
		sc.matches = append(sc.matches, SpanMatch{
			EntityID:   h.best.EntityID,
			Canonical:  c.e.canonical(h.best.EntityID),
			Span:       h.text,
			Start:      0,
			End:        nTokens,
			Score:      h.best.Score,
			Similarity: h.sim,
			Source:     h.best.Source,
			Method:     MethodFuzzy,
		})
		sc.altRange = append(sc.altRange, [2]int32{})
		emitted = true
		if c.req.Explain {
			//websyn:ignore hotpathalloc trace is Explain-gated diagnostics, off the steady-state path
			c.trace("fuzzy", "%q -> entity %d %q (sim %.3f)", h.text, h.best.EntityID, c.e.canonical(h.best.EntityID), h.sim)
		}
	}
	if !emitted && c.req.Explain {
		//websyn:ignore hotpathalloc trace is Explain-gated diagnostics, off the steady-state path
		c.trace("fuzzy", "no hit above threshold for %q", sc.qnorm)
	}
}

// spanPass resolves leftover token runs through the trigram index: for
// each maximal run of tokens the trie left uncovered, a greedy
// left-to-right sweep tries every window up to MaxSpanTokens wide and
// accepts, per position, the window whose best hit has the highest Dice
// similarity (ties to the wider window). Dice similarity penalizes both
// under- and over-extension — "kingdom of the cristal skull tickets"
// scores best on the 5-token window, leaving "tickets" in the remainder.
//
//websyn:hotpath
func (c *matchCtx) spanPass() {
	sc := c.sc
	tokens := sc.tokens
	for runStart := 0; runStart < len(tokens); runStart++ {
		if sc.used[runStart] {
			continue
		}
		runEnd := runStart
		for runEnd < len(tokens) && !sc.used[runEnd] {
			runEnd++
		}
		accepted := false
		for i := runStart; i < runEnd; {
			sm, altR, ok := c.bestSpanAt(i, runEnd)
			if !ok {
				i++
				continue
			}
			for j := sm.Start; j < sm.End; j++ {
				sc.used[j] = true
			}
			sc.matches = append(sc.matches, sm)
			sc.altRange = append(sc.altRange, altR)
			accepted = true
			if c.req.Explain {
				//websyn:ignore hotpathalloc trace is Explain-gated diagnostics, off the steady-state path
				c.trace("span-fuzzy", "span %q [%d,%d) -> %q -> entity %d %q (sim %.3f)",
					sc.span(sm.Start, sm.End), sm.Start, sm.End, sm.Span, sm.EntityID, sm.Canonical, sm.Similarity)
			}
			i = sm.End
		}
		if !accepted && c.req.Explain {
			//websyn:ignore hotpathalloc trace is Explain-gated diagnostics, off the steady-state path
			c.trace("span-fuzzy", "run %q [%d,%d): no candidate above threshold",
				sc.span(runStart, runEnd), runStart, runEnd)
		}
		runStart = runEnd - 1
	}
}

// bestSpanAt evaluates every window starting at token i (bounded by
// runEnd and MaxSpanTokens) and returns the span match with the highest
// hit similarity (ties to the wider window). Each losing window's
// alternates are truncated back off the arena; the winner's range rides
// along. Two guards keep trigram noise out:
//
//   - Single-token windows shorter than minSingleSpanLen characters are
//     skipped — the trie's edit-distance correction already covers
//     short-token typos.
//   - A window must contain at least one token outside the dictionary
//     vocabulary. Span-fuzzy exists to bridge vocabulary gaps
//     (misspellings, concatenations); a window of purely known tokens
//     already had its chance at the trie, and any trigram hit on it is a
//     containment artifact ("showtimes" matching "wall e showtimes").
//
//websyn:hotpath
func (c *matchCtx) bestSpanAt(i, runEnd int) (SpanMatch, [2]int32, bool) {
	sc := c.sc
	maxL := min(c.req.MaxSpanTokens, runEnd-i)
	var best SpanMatch
	var bestR [2]int32
	found := false
	for l := maxL; l >= 1; l-- {
		if l == 1 && len(sc.tokens[i]) < minSingleSpanLen {
			continue
		}
		oov := false
		for _, tok := range sc.tokens[i : i+l] {
			if !c.e.dict.HasToken(tok) {
				oov = true
				break
			}
		}
		if !oov {
			continue
		}
		minSim := c.req.MinSim
		if l == 1 && minSim < singleSpanMinSim {
			minSim = singleSpanMinSim
		}
		mark := int32(len(sc.alts))
		hits := c.e.fuzzy.lookupArena(sc, sc.span(i, i+l), c.req.TopK)
		sm, ok := c.resolveSpanHits(hits, i, i+l, minSim)
		if !ok {
			continue
		}
		if !found || sm.Similarity > best.Similarity {
			best, bestR, found = sm, [2]int32{mark, int32(len(sc.alts))}, true
		} else {
			// Losing window: drop its alternates off the arena tail. (A
			// superseded previous winner's entries stay as dead space; only
			// referenced ranges matter.)
			sc.alts = sc.alts[:mark]
		}
	}
	return best, bestR, found
}

// resolveSpanHits turns a span's fuzzy hits into a match: the first hit
// with a usable entity wins, later hits on distinct entities become
// alternates, up to TopK-1 of them (appended to the arena; the caller
// tracks the range).
//
//websyn:hotpath
func (c *matchCtx) resolveSpanHits(hits []arenaHit, start, end int, minSim float64) (SpanMatch, bool) {
	sc := c.sc
	var sm SpanMatch
	found := false
	nAlts := 0
	sc.seen = sc.seen[:0]
	for _, h := range hits {
		if !h.ok || !c.e.validEntity(h.best.EntityID) {
			continue
		}
		if minSim > 0 && h.sim < minSim {
			break // hits are sorted best-first
		}
		if !found {
			sm = SpanMatch{
				EntityID:   h.best.EntityID,
				Canonical:  c.e.canonical(h.best.EntityID),
				Span:       h.text,
				Start:      start,
				End:        end,
				Score:      h.best.Score,
				Similarity: h.sim,
				Source:     h.best.Source,
				Method:     MethodSpanFuzzy,
			}
			sc.seen = append(sc.seen, h.best.EntityID)
			found = true
			continue
		}
		if nAlts >= c.req.TopK-1 || seenEntity(sc.seen, h.best.EntityID) {
			continue
		}
		sc.seen = append(sc.seen, h.best.EntityID)
		sc.alts = append(sc.alts, Alternate{
			EntityID:   h.best.EntityID,
			Canonical:  c.e.canonical(h.best.EntityID),
			Text:       h.text,
			Score:      h.best.Score,
			Similarity: h.sim,
		})
		nAlts++
	}
	return sm, found
}

// seenEntity reports whether a span already emitted this entity. The
// per-span entity list is bounded by TopK, so a linear scan beats a map.
//
//websyn:hotpath
func seenEntity(seen []int, id int) bool {
	for _, s := range seen {
		if s == id {
			return true
		}
	}
	return false
}

// fixAlternates attaches each match's alternate range as a view into the
// arena. Deferred until all appends are done: growing sc.alts may move
// its backing array, which would strand earlier views.
//
//websyn:hotpath
func (c *matchCtx) fixAlternates() {
	sc := c.sc
	for i := range sc.matches {
		if r := sc.altRange[i]; r[1] > r[0] {
			sc.matches[i].Alternates = sc.alts[r[0]:r[1]:r[1]]
		}
	}
}

// mergeInto interleaves two Start-ordered match lists into *dst.
//
//websyn:hotpath
func mergeInto(dst *[]SpanMatch, a, b []SpanMatch) []SpanMatch {
	out := (*dst)[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Start <= b[j].Start {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	*dst = out
	return out
}
