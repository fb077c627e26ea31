// Package match implements the downstream application the paper's title
// promises: fuzzy matching of free-text Web queries to structured data.
//
// The miner (internal/core) produces, per entity, an expanded set of
// equivalent strings. This package compiles those strings into a token-trie
// dictionary and segments incoming queries against it: the query "indy 4
// near san fran" matches the movie entity on the span "indy 4" and leaves
// the remainder "near san fran" for downstream interpretation (location,
// showtimes, ...), exactly the Bing scenario in the paper's introduction.
//
// Matching is fuzzy on two axes:
//
//   - Vocabulary: the dictionary contains the mined informal strings, not
//     just canonical ones, so "digital rebel xt" resolves to the Canon EOS
//     350D without any textual overlap.
//   - Typos: unknown query tokens are corrected to dictionary vocabulary
//     within edit distance 1 ("twilght" -> "twilight").
package match

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"websyn/internal/textnorm"
)

// Entry is one dictionary payload: a string resolves to an entity with a
// confidence score (higher is stronger evidence; the facade feeds mined
// IPC/ICR-derived scores or log frequencies).
type Entry struct {
	EntityID int
	Score    float64
	// Source records where the string came from ("canonical", "mined",
	// "wiki", ...) for diagnostics.
	Source string
}

// trieNode is one node of the token trie.
type trieNode struct {
	// children is nil until the node gets its first child: most nodes
	// are leaves, and a nil map reads as empty everywhere.
	children map[string]*trieNode
	entries  []Entry // non-empty when a dictionary string ends here
}

// Dictionary is the compiled synonym dictionary.
type Dictionary struct {
	root    *trieNode
	size    int             // (string, entity) pairs
	strings int             // distinct strings
	vocab   map[string]bool // every token appearing in any dictionary string
	tokens  []string        // vocab's keys in first-seen order: the typo index's token table

	// typo is the typo corrector's index over tokens, built on first use
	// and dropped when Add grows the vocabulary. typoMu serializes
	// builds, so concurrent readers of a frozen dictionary build it once.
	typo   atomic.Pointer[typoIndex]
	typoMu sync.Mutex
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{root: &trieNode{}, vocab: make(map[string]bool)}
}

// Add inserts one string with its payload. The string is normalized; empty
// strings are ignored. Duplicate (string, entity) pairs keep the higher
// score.
func (d *Dictionary) Add(text string, e Entry) {
	tokens := textnorm.Tokenize(text)
	if len(tokens) == 0 {
		return
	}
	node := d.root
	for _, tok := range tokens {
		if !d.vocab[tok] {
			d.vocab[tok] = true
			d.tokens = append(d.tokens, tok)
			d.typo.Store(nil) // new vocabulary: the typo index is stale
		}
		next := node.children[tok]
		if next == nil {
			next = &trieNode{}
			if node.children == nil {
				node.children = make(map[string]*trieNode)
			}
			node.children[tok] = next
		}
		node = next
	}
	for i := range node.entries {
		if node.entries[i].EntityID == e.EntityID {
			if e.Score > node.entries[i].Score {
				node.entries[i].Score = e.Score
				node.entries[i].Source = e.Source
			}
			return
		}
	}
	if len(node.entries) == 0 {
		d.strings++
	}
	node.entries = append(node.entries, e)
	d.size++
}

// Len returns the number of (string, entity) pairs.
func (d *Dictionary) Len() int { return d.size }

// DistinctStrings returns the number of distinct dictionary strings —
// len(Strings()) without walking the trie. The fuzzy-index loaders use it
// to reject a packed posting file built against a different dictionary.
func (d *Dictionary) DistinctStrings() int { return d.strings }

// HasToken reports whether tok occurs in any dictionary string.
func (d *Dictionary) HasToken(tok string) bool { return d.vocab[tok] }

// Lookup resolves an exact (normalized) string to its entries, best score
// first. It does not segment; see Segment for free-text queries.
func (d *Dictionary) Lookup(text string) []Entry {
	node := d.root
	for _, tok := range textnorm.Tokenize(text) {
		node = node.children[tok]
		if node == nil {
			return nil
		}
	}
	if len(node.entries) == 0 {
		return nil
	}
	out := append([]Entry(nil), node.entries...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].EntityID < out[j].EntityID
	})
	return out
}

// lookupNormEntries resolves an already-normalized string (single-space
// separated tokens, as every indexed string and arena span is) to its
// trie node's entries without tokenizing, copying or sorting — the
// arena path's exact lookup. The returned slice is the node's own
// storage in insertion order: read-only, and not score-sorted (use
// bestEntryOf or sortedEntries).
func (d *Dictionary) lookupNormEntries(text string) []Entry {
	node := d.root
	for len(text) > 0 {
		tok := text
		if i := strings.IndexByte(text, ' '); i >= 0 {
			tok, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		node = node.children[tok]
		if node == nil {
			return nil
		}
	}
	return node.entries
}

// ForEach visits every (string, entries) pair in lexicographic string
// order. The entries slice must not be mutated.
func (d *Dictionary) ForEach(visit func(text string, entries []Entry)) {
	var walk func(node *trieNode, prefix []string)
	walk = func(node *trieNode, prefix []string) {
		if len(node.entries) > 0 {
			visit(joinTokens(prefix), node.entries)
		}
		keys := make([]string, 0, len(node.children))
		for k := range node.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			walk(node.children[k], append(prefix, k))
		}
	}
	walk(d.root, nil)
}

// Strings returns every dictionary string in lexicographic order.
func (d *Dictionary) Strings() []string {
	var out []string
	d.ForEach(func(text string, _ []Entry) { out = append(out, text) })
	return out
}

// correct returns the dictionary vocabulary token closest to tok within
// edit distance 1, or "" when none or ambiguous. Only tokens of length >= 4
// are corrected: short tokens ("4", "tv") produce too many false friends.
// Candidates come from a probe of the typo index, never from a pass over
// the vocabulary.
//
//websyn:hotpath
func (d *Dictionary) correct(tok string) string {
	if len(tok) < typoMinQueryLen || d.vocab[tok] {
		return ""
	}
	return d.typoIndex().unique(tok)
}

// typoIndex returns the index over the current vocabulary, building it
// if Add has run since the last build. NewEngine calls it so a served
// dictionary never builds on a request.
//
//websyn:hotpath
func (d *Dictionary) typoIndex() *typoIndex {
	if ix := d.typo.Load(); ix != nil {
		return ix
	}
	d.typoMu.Lock()
	defer d.typoMu.Unlock()
	ix := d.typo.Load()
	if ix == nil {
		ix = buildTypoIndex(d.tokens)
		d.typo.Store(ix)
	}
	return ix
}

// editWithin1 reports whether the rune-level Levenshtein distance of a
// and b is at most 1, without allocating: any single-edit alignment must
// spend its edit at the first rune mismatch, after which the remaining
// suffixes must be byte-equal.
//
//websyn:hotpath
func editWithin1(a, b string) bool {
	if a == b {
		return true
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ra, sa := utf8.DecodeRuneInString(a[i:])
		rb, sb := utf8.DecodeRuneInString(b[j:])
		if ra == rb {
			i += sa
			j += sb
			continue
		}
		if a[i+sa:] == b[j+sb:] { // substitution
			return true
		}
		if a[i+sa:] == b[j:] { // deletion from a
			return true
		}
		return a[i:] == b[j+sb:] // deletion from b
	}
	rest := a[i:]
	if j < len(b) {
		rest = b[j:]
	}
	if rest == "" {
		return true
	}
	_, size := utf8.DecodeRuneInString(rest)
	return len(rest) == size
}
