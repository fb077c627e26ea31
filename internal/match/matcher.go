package match

import (
	"strings"

	"websyn/internal/textnorm"
)

// Match is one entity mention found inside a query.
type Match struct {
	// EntityID is the resolved entity.
	EntityID int
	// Text is the matched surface span (normalized tokens joined).
	Text string
	// Start and End are the token span [Start, End) within the query.
	Start, End int
	// Score is the dictionary confidence of the winning entry.
	Score float64
	// Source is the winning entry's provenance.
	Source string
	// Corrected reports whether typo correction was applied to any token
	// in the span.
	Corrected bool
}

// Segmentation is the result of matching a free-text query.
type Segmentation struct {
	// Query is the normalized input.
	Query string
	// Tokens is the normalized token sequence.
	Tokens []string
	// Matches are the non-overlapping entity mentions, left to right.
	Matches []Match
	// Remainder is the query text outside all matched spans, in order.
	Remainder string
}

// Segment finds entity mentions in a free-text query. It scans left to
// right, at each position taking the longest dictionary span starting there
// (with per-token typo correction when the exact token is unknown), and
// resolves each span to its best entry.
func (d *Dictionary) Segment(query string) *Segmentation {
	return d.SegmentTokens(textnorm.Tokenize(query))
}

// SegmentTokens is Segment for callers that already hold the normalized
// token sequence (e.g. a serving tier that tokenized once for its cache
// key). The tokens slice is retained by the result.
func (d *Dictionary) SegmentTokens(tokens []string) *Segmentation {
	seg := &Segmentation{Query: strings.Join(tokens, " "), Tokens: tokens}
	used := make([]bool, len(tokens))

	for start := 0; start < len(tokens); start++ {
		node, end, corrected := d.longestFrom(tokens, start)
		if end < 0 {
			continue
		}
		best := bestEntryOf(node.entries)
		seg.Matches = append(seg.Matches, Match{
			EntityID:  best.EntityID,
			Text:      strings.Join(tokens[start:end], " "),
			Start:     start,
			End:       end,
			Score:     best.Score,
			Source:    best.Source,
			Corrected: corrected,
		})
		for i := start; i < end; i++ {
			used[i] = true
		}
		start = end - 1
	}

	var rest []string
	for i, tok := range tokens {
		if !used[i] {
			rest = append(rest, tok)
		}
	}
	seg.Remainder = strings.Join(rest, " ")
	return seg
}

// longestFrom walks the trie from tokens[start], applying typo correction
// on unknown tokens, and returns the node of the longest span that ends
// with entries, the span's end, and whether any of its tokens was
// corrected. end is -1 when no span starts here. Both segmenters — this
// file's SegmentTokens and the arena pipeline's segment stage — walk
// through it, so it is the corrector's only caller.
//
//websyn:hotpath
func (d *Dictionary) longestFrom(tokens []string, start int) (best *trieNode, end int, bestCorrected bool) {
	node := d.root
	end = -1
	corrected := false
	for i := start; i < len(tokens); i++ {
		tok := tokens[i]
		next := node.children[tok]
		if next == nil {
			if fixed := d.correct(tok); fixed != "" {
				next = node.children[fixed]
				if next != nil {
					corrected = true
				}
			}
		}
		if next == nil {
			break
		}
		node = next
		if len(node.entries) > 0 {
			best, end, bestCorrected = node, i+1, corrected
		}
	}
	return best, end, bestCorrected
}
