// Package textnorm implements the string normalization, tokenization and
// similarity primitives shared by every layer of the websyn pipeline.
//
// The paper's mining method compares query strings against canonical entity
// strings purely through set operations on Web pages, but every practical
// stage around it — building the synthetic corpus, indexing pages, matching
// log queries against dictionaries, judging mined synonyms against ground
// truth — needs a single consistent definition of "the same string". That
// definition lives here: lower-cased, punctuation-stripped, whitespace-
// collapsed token sequences.
package textnorm

import (
	"strings"
	"unicode"
)

// Normalize canonicalizes a raw string for comparison and dictionary keys:
// lower-case, punctuation replaced by spaces (so "Mamma Mia!" and
// "mamma mia" collide), runs of whitespace collapsed, leading/trailing
// space trimmed.
//
// Normalize is idempotent: Normalize(Normalize(s)) == Normalize(s).
func Normalize(s string) string {
	return strings.Join(Tokenize(s), " ")
}

// Tokenize splits a raw string into normalized tokens. Letters and digits
// are kept (lower-cased); every other rune is a separator. Alphanumeric
// model codes such as "EOS-350D" become single tokens "eos" "350d"?  No:
// the dash is a separator, yielding "eos", "350d" — which is exactly how
// users type camera model codes, so index terms and query terms agree.
func Tokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// stopwords are tokens carrying no entity-discriminating signal. They are
// dropped when forming acronyms and significant-token sets, but kept in
// Normalize output (a normalized string must round-trip users' phrasing).
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "at": true, "by": true,
	"for": true, "from": true, "in": true, "into": true, "of": true,
	"on": true, "or": true, "the": true, "to": true, "with": true,
}

// SignificantTokens returns the normalized tokens of s with stopwords
// removed. If every token is a stopword the full token list is returned
// instead, so the result is non-empty whenever s has any token.
func SignificantTokens(s string) []string {
	all := Tokenize(s)
	sig := make([]string, 0, len(all))
	for _, t := range all {
		if !stopwords[t] {
			sig = append(sig, t)
		}
	}
	if len(sig) == 0 {
		return all
	}
	return sig
}

// Acronym builds the initialism of s from ALL tokens, including stopwords,
// because real-world acronyms keep stopword initials: "Lord of the Rings"
// -> "lotr". Numeric tokens contribute their full digits, so
// "Kung Fu Panda 2" -> "kfp2".
func Acronym(s string) string {
	var b strings.Builder
	for _, tok := range Tokenize(s) {
		r := []rune(tok)
		if len(r) == 0 {
			continue
		}
		if unicode.IsDigit(r[0]) {
			b.WriteString(tok)
		} else {
			b.WriteRune(r[0])
		}
	}
	return b.String()
}

// CharNGrams returns the multiset of character n-grams of the normalized
// form of s (spaces included, as in standard approximate-matching practice).
// Returns nil if the normalized string is shorter than n.
func CharNGrams(s string, n int) []string {
	norm := Normalize(s)
	r := []rune(norm)
	if n <= 0 || len(r) < n {
		return nil
	}
	grams := make([]string, 0, len(r)-n+1)
	for i := 0; i+n <= len(r); i++ {
		grams = append(grams, string(r[i:i+n]))
	}
	return grams
}

// NGramSimilarity is the Dice coefficient over character n-gram multisets of
// the two strings: 2*|common| / (|A|+|B|). It tolerates typos and spacing
// differences better than token-set overlap.
func NGramSimilarity(a, b string, n int) float64 {
	ga, gb := CharNGrams(a, n), CharNGrams(b, n)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	count := make(map[string]int, len(ga))
	for _, g := range ga {
		count[g]++
	}
	common := 0
	for _, g := range gb {
		if count[g] > 0 {
			count[g]--
			common++
		}
	}
	return 2 * float64(common) / float64(len(ga)+len(gb))
}
