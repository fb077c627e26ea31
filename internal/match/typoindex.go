package match

import "unicode/utf8"

// typoIndex is the one-deletion neighbourhood index behind
// Dictionary.correct. Two strings within rune edit distance 1 always
// share a member of their deletion neighbourhoods — the string itself
// plus every string obtained by deleting one rune:
//
//   - a substitution leaves both sides with the same string once the
//     differing rune is deleted from each;
//   - an insertion or deletion makes the shorter string a one-rune
//     deletion of the longer.
//
// So the index hashes every vocabulary token of at least typoMinVocabLen
// bytes, and each of its single-rune deletions, into one bucketed
// key -> token-id slab, and a query token probes itself plus its own
// deletions: at most runes+1 bucket reads instead of a pass over the
// whole vocabulary. A probe hit is only a candidate — hash collisions
// and distance-2 coincidences (a transposition shares a deletion too)
// land in the same bucket — so every hit is verified with editWithin1
// and the byte-length guard before it counts.
//
// The index is a pure function of the token table, which Dictionary
// keeps in first-seen order: a probe's cost does not depend on map
// iteration order, and two boots of one snapshot build the same index.
type typoIndex struct {
	// tokens is the dictionary's token table as of the build; a slot's id
	// indexes it. Tokens shorter than typoMinVocabLen have no slots.
	tokens []string
	// starts is the bucket directory: bucket b owns
	// slots[starts[b]:starts[b+1]]. Its length is a power of two plus one.
	starts []uint32
	slots  []typoSlot
	// shift maps a key to its bucket: the key's top bits.
	shift uint
}

// typoSlot is one (neighbourhood key, token) pair. The bucket already
// pins the key's top bits; tag keeps its low 32 so most foreign keys
// sharing a bucket are rejected without touching the token table.
type typoSlot struct {
	tag uint32
	id  uint32
}

const (
	// typoMinQueryLen is the shortest token correct will try to fix:
	// short tokens ("4", "tv") produce too many false friends.
	typoMinQueryLen = 4
	// typoMinVocabLen is the shortest vocabulary token a correction may
	// land on. A candidate is at most one byte shorter than the query
	// token, so nothing shorter than typoMinQueryLen-1 could ever be
	// accepted; the index simply leaves those tokens out.
	typoMinVocabLen = typoMinQueryLen - 1
)

// neighbourhood enumerates the hash keys of a string and of its
// distinct single-rune deletions without materializing any of them: it
// carries the hash state of the prefix before the cursor and finishes
// each key over the suffix after the deleted rune. Deleting either of
// two equal adjacent runes yields the same string, so only the last
// rune of such a run is deleted. Malformed UTF-8 advances one byte at a
// time, exactly as editWithin1 reads it.
type neighbourhood struct {
	s      string
	i      int    // cursor: byte offset of the next rune to delete
	prefix uint64 // hash state of s[:i]
	whole  bool   // the key of s itself has been emitted
}

// FNV-1a's offset basis and prime: the running state is cheap to
// extend byte by byte, which is what sharing the prefix state needs.
const (
	typoHashSeed  = 14695981039346656037
	typoHashPrime = 1099511628211
)

//websyn:hotpath
func typoHashExtend(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * typoHashPrime
	}
	return h
}

// typoHashFinish avalanches the running state: FNV's top bits, which
// pick the bucket, barely move on short inputs without it.
//
//websyn:hotpath
func typoHashFinish(h uint64) uint64 {
	h ^= h >> 32
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h
}

// next returns the next neighbourhood key, or ok=false when exhausted.
//
//websyn:hotpath
func (n *neighbourhood) next() (key uint64, ok bool) {
	if !n.whole {
		n.whole = true
		n.prefix = typoHashSeed
		return typoHashFinish(typoHashExtend(typoHashSeed, n.s)), true
	}
	s := n.s
	for n.i < len(s) {
		i, w := n.i, 1
		if s[i] >= utf8.RuneSelf {
			_, w = utf8.DecodeRuneInString(s[i:])
		}
		h := n.prefix
		n.prefix = typoHashExtend(h, s[i:i+w])
		n.i = i + w
		rest := s[i+w:]
		if w == 1 {
			if rest != "" && rest[0] == s[i] {
				continue // the next rune is the same: deleting that one covers this string
			}
		} else if len(rest) >= w && rest[:w] == s[i:i+w] {
			continue
		}
		return typoHashFinish(typoHashExtend(h, rest)), true
	}
	return 0, false
}

// buildTypoIndex indexes every token of at least typoMinVocabLen bytes.
// It is a counting sort on the bucket bits: one pass sizes the buckets,
// a prefix sum lays out the directory, a second pass drops each slot
// into place — exact-capacity slabs, no comparison sort, and no staging
// copy of the ~8 keys per token (hashing them twice costs less than the
// cache misses either pass spends placing them).
func buildTypoIndex(tokens []string) *typoIndex {
	// One bucket per two slots keeps a probe inside one cache line on
	// average; the neighbourhood size is bounded by bytes+1 per token.
	bound := 0
	for _, v := range tokens {
		if len(v) >= typoMinVocabLen {
			bound += len(v) + 1
		}
	}
	bits := uint(0)
	for 1<<(bits+1) < bound {
		bits++
	}
	ix := &typoIndex{tokens: tokens, starts: make([]uint32, 1<<bits+1), shift: 64 - bits}

	// Count into starts[b+1], then prefix-sum so starts[b] is bucket b's
	// first slot.
	for _, v := range tokens {
		if len(v) < typoMinVocabLen {
			continue
		}
		n := neighbourhood{s: v}
		for key, ok := n.next(); ok; key, ok = n.next() {
			ix.starts[key>>ix.shift+1]++
		}
	}
	for b := 1; b < len(ix.starts); b++ {
		ix.starts[b] += ix.starts[b-1]
	}
	ix.slots = make([]typoSlot, ix.starts[len(ix.starts)-1])

	// Fill, advancing starts[b] as bucket b's write cursor; afterwards
	// starts[b] holds bucket b's end, i.e. the directory shifted by one.
	for id, v := range tokens {
		if len(v) < typoMinVocabLen {
			continue
		}
		n := neighbourhood{s: v}
		for key, ok := n.next(); ok; key, ok = n.next() {
			b := key >> ix.shift
			ix.slots[ix.starts[b]] = typoSlot{tag: uint32(key), id: uint32(id)}
			ix.starts[b]++
		}
	}
	copy(ix.starts[1:], ix.starts)
	ix.starts[0] = 0
	return ix
}

// unique returns the one indexed token within rune edit distance 1 of
// tok whose byte length differs from tok's by at most 1, or "" when
// there is none or more than one. tok must not itself be indexed.
//
//websyn:hotpath
func (ix *typoIndex) unique(tok string) string {
	const none = ^uint32(0)
	best := none
	n := neighbourhood{s: tok}
	for key, ok := n.next(); ok; key, ok = n.next() {
		b, tag := key>>ix.shift, uint32(key)
		for _, s := range ix.slots[ix.starts[b]:ix.starts[b+1]] {
			if s.tag != tag || s.id == best {
				continue
			}
			v := ix.tokens[s.id]
			if dl := len(v) - len(tok); dl > 1 || dl < -1 || !editWithin1(tok, v) {
				continue
			}
			if best != none {
				return "" // ambiguous correction: refuse to guess
			}
			best = s.id
		}
	}
	if best == none {
		return ""
	}
	return ix.tokens[best]
}
