package match

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"websyn/internal/textnorm"
)

// Whole-string fuzzy lookup.
//
// Segment handles token-level typos; this file handles the harder case of
// queries that are *globally* close to a dictionary string but don't
// tokenize cleanly onto it ("madagascar2", "kungfu panda", "cannon eos").
// Dictionary strings are indexed by character trigrams; a query retrieves
// candidates sharing enough trigrams and ranks them by n-gram Dice
// similarity.
//
// The index is *packed*: trigrams are interned to dense gram IDs and the
// posting lists live in two contiguous int32 slabs (string index +
// in-string multiplicity) addressed through an offsets array. Because the
// postings carry multiplicities, a scan accumulates the exact multiset
// gram intersection in a reusable scratch array and computes the Dice
// similarity directly — no per-query maps and no re-gramming of candidate
// strings. Per-string gram counts prune hopeless candidates before any
// arithmetic, and top-k selection uses a bounded heap instead of sorting
// every qualifying hit.

// fuzzyGramSize is the character n-gram width of the index.
const fuzzyGramSize = 3

// FuzzyIndex is a packed character-trigram index over dictionary strings.
type FuzzyIndex struct {
	dict    *Dictionary
	strings []string // indexed normalized strings
	minSim  float64

	// Packed posting lists.
	gramID   map[string]int32 // trigram -> dense gram ID
	grams    []string         // gram ID -> trigram
	offsets  []int32          // gram g's postings: postings[offsets[g]:offsets[g+1]]
	postings []int32          // string indexes, ascending within each gram's list
	mults    []int32          // parallel to postings: gram multiplicity in the string

	// Per-string pruning tables.
	gramLen  []int32 // total (multiset) trigram count of the string
	distinct []int32 // distinct trigram count of the string

	// verified counts candidates that survived every prune and had their
	// exact similarity computed — the cost the prunes exist to bound.
	verified atomic.Int64

	// backing pins the mmap handle (or other owner) of the posting slabs
	// when the index was built over a mapped PackedFuzzy, so the mapping
	// outlives every index that aliases it. nil for heap-backed indexes.
	backing any

	scratch sync.Pool // *fuzzyScratch
}

// fuzzyScratch is the reusable per-lookup state of one index: shared-gram
// accumulators indexed by string, plus the list of touched strings so a
// scan resets only what it wrote.
type fuzzyScratch struct {
	acc     []int32 // Σ min(query multiplicity, string multiplicity) over shared grams
	shared  []int32 // distinct shared gram count
	touched []int32 // string indexes with shared > 0
}

// NewFuzzyIndex builds the trigram index over every string in the
// dictionary. minSim is the Dice-similarity acceptance threshold
// (0.5–0.8 are sensible; higher is stricter).
func (d *Dictionary) NewFuzzyIndex(minSim float64) *FuzzyIndex {
	strings := d.Strings()
	fi := &FuzzyIndex{
		dict:     d,
		strings:  strings,
		minSim:   normMinSim(minSim),
		gramID:   make(map[string]int32),
		gramLen:  make([]int32, len(strings)),
		distinct: make([]int32, len(strings)),
	}
	// Accumulate per-gram posting lists, then flatten them into the two
	// slabs. Gram IDs are assigned in first-occurrence order over the
	// string list, so the packed layout is deterministic for a given
	// string order.
	var perGramIdx, perGramMult [][]int32
	for i, s := range strings {
		gs := textnorm.CharNGrams(s, fuzzyGramSize)
		fi.gramLen[i] = int32(len(gs))
		dcount := int32(0)
		for _, g := range gs {
			id, ok := fi.gramID[g]
			if !ok {
				id = int32(len(fi.grams))
				fi.gramID[g] = id
				fi.grams = append(fi.grams, g)
				perGramIdx = append(perGramIdx, nil)
				perGramMult = append(perGramMult, nil)
			}
			if lst := perGramIdx[id]; len(lst) > 0 && lst[len(lst)-1] == int32(i) {
				perGramMult[id][len(lst)-1]++
				continue
			}
			perGramIdx[id] = append(perGramIdx[id], int32(i))
			perGramMult[id] = append(perGramMult[id], 1)
			dcount++
		}
		fi.distinct[i] = dcount
	}
	total := 0
	for _, lst := range perGramIdx {
		total += len(lst)
	}
	fi.offsets = make([]int32, len(fi.grams)+1)
	fi.postings = make([]int32, 0, total)
	fi.mults = make([]int32, 0, total)
	for id := range perGramIdx {
		fi.offsets[id] = int32(len(fi.postings))
		fi.postings = append(fi.postings, perGramIdx[id]...)
		fi.mults = append(fi.mults, perGramMult[id]...)
	}
	fi.offsets[len(fi.grams)] = int32(len(fi.postings))
	fi.initScratch()
	return fi
}

// normMinSim resolves the default acceptance threshold.
func normMinSim(minSim float64) float64 {
	if minSim <= 0 {
		return 0.6
	}
	return minSim
}

// initScratch wires the scratch pool to this index's string count.
func (fi *FuzzyIndex) initScratch() {
	n := len(fi.strings)
	fi.scratch.New = func() any {
		return &fuzzyScratch{acc: make([]int32, n), shared: make([]int32, n)}
	}
}

// Len returns the number of indexed strings.
func (fi *FuzzyIndex) Len() int { return len(fi.strings) }

// FuzzyHit is one fuzzy-lookup result.
type FuzzyHit struct {
	Text       string  // the dictionary string
	Similarity float64 // Dice trigram similarity to the query
	Entries    []Entry // the string's dictionary payloads, best first
}

// scoredHit is the internal pre-materialization form of a hit: the
// dictionary payloads are only resolved for the final top-k.
type scoredHit struct {
	text string
	sim  float64
}

// hitBetter reports whether a ranks strictly before b: higher similarity
// first, ties broken by ascending text. Texts are distinct within an
// index, so this is a total order and result order is deterministic.
func hitBetter(a, b scoredHit) bool {
	if a.sim != b.sim {
		return a.sim > b.sim
	}
	return a.text < b.text
}

// cmpHit is hitBetter as a three-way comparison for slices.SortFunc.
func cmpHit(a, b scoredHit) int {
	if hitBetter(a, b) {
		return -1
	}
	if hitBetter(b, a) {
		return 1
	}
	return 0
}

// arenaHit is the engine's pre-resolved form of a FuzzyHit: only the
// winning entry is carried, because the engine never reads past
// Entries[0] — so no per-hit entry list is materialized.
type arenaHit struct {
	text string
	sim  float64
	best Entry
	ok   bool // the string resolved to at least one entry
}

// queryGram is one distinct trigram of a query with its multiplicity.
type queryGram struct {
	text  string
	count int32
}

// linearDedupMax bounds the slice-scan deduplication in queryGramsInto;
// past it a map takes over so adversarially long queries stay O(n).
const linearDedupMax = 64

// gramAccum accumulates distinct query grams with multiplicities.
// Deduplication is a linear scan while the distinct set is small (real
// queries always are), which beats a map allocation per lookup; a map
// takes over past linearDedupMax so a megabyte query cannot go
// quadratic.
type gramAccum struct {
	out   []queryGram
	index map[string]int32 // gram -> position in out, once past the cutoff
	total int
}

//websyn:hotpath
func (a *gramAccum) add(g string) {
	a.total++
	if a.index != nil {
		if j, ok := a.index[g]; ok {
			a.out[j].count++
			return
		}
		a.index[g] = int32(len(a.out))
		a.out = append(a.out, queryGram{text: g, count: 1})
		return
	}
	for i := range a.out {
		if a.out[i].text == g {
			a.out[i].count++
			return
		}
	}
	if len(a.out) >= linearDedupMax {
		a.index = make(map[string]int32, 2*len(a.out))
		for i := range a.out {
			a.index[a.out[i].text] = int32(i)
		}
		a.index[g] = int32(len(a.out))
	}
	a.out = append(a.out, queryGram{text: g, count: 1})
}

// queryGramsInto returns the distinct trigrams of an already-normalized
// query with multiplicities, plus the total (multiset) gram count,
// accumulating into a caller-supplied slice (arena reuse: pass sc.qg[:0]
// and keep the grown result). For ASCII queries — the overwhelmingly
// common case — gram strings are substrings of norm and no per-gram
// allocation happens.
//
//websyn:hotpath
func queryGramsInto(out []queryGram, norm string) ([]queryGram, int) {
	ascii := true
	for i := 0; i < len(norm); i++ {
		if norm[i] >= utf8.RuneSelf {
			ascii = false
			break
		}
	}
	acc := gramAccum{out: out}
	if ascii {
		if len(norm) < fuzzyGramSize {
			return nil, 0
		}
		for i := 0; i+fuzzyGramSize <= len(norm); i++ {
			acc.add(norm[i : i+fuzzyGramSize])
		}
		return acc.out, acc.total
	}
	gs := textnorm.CharNGrams(norm, fuzzyGramSize)
	if len(gs) == 0 {
		return nil, 0
	}
	for _, g := range gs {
		acc.add(g)
	}
	return acc.out, acc.total
}

// minSharedGrams is the candidate-generation prune: a Dice similarity of
// s over gram multisets of sizes a and b needs at least s*(a+b)/2 common
// grams, and with b unknown at least s*a/2 — so a candidate must share
// at least ceil(s*a/2) grams of the query multiset. The ceiling (rather
// than truncation) is the tightest integer bound: a shared count strictly
// below s*a/2 can never verify.
//
// The bound governs the MULTISET intersection. Only when every query
// gram is distinct does it also bound the distinct shared-gram count
// (the two coincide there) — scan checks that before applying the
// distinct-count prunes, because a string like "aaaaaaa" can clear the
// multiset bound through multiplicity while sharing a single distinct
// gram.
//
//websyn:hotpath
func minSharedGrams(minSim float64, qTotal int) int32 {
	ms := int32(math.Ceil(minSim * float64(qTotal) / 2))
	if ms < 1 {
		ms = 1
	}
	return ms
}

// lengthWindow bounds the (multiset) gram count of any string that can
// reach minSim against a query of qTotal grams: the Dice numerator is at
// most 2*min(a,b), so b must lie within [a*s/(2-s), a*(2-s)/s]. One gram
// of slack on each side absorbs float rounding; the exact similarity test
// decides the boundary.
//
//websyn:hotpath
func lengthWindow(minSim float64, qTotal int) (lo, hi int32) {
	a := float64(qTotal)
	lo = int32(math.Floor(a*minSim/(2-minSim))) - 1
	hi = int32(math.Ceil(a*(2-minSim)/minSim)) + 1
	if lo < 1 {
		lo = 1
	}
	return lo, hi
}

// Lookup finds the dictionary strings globally similar to the query,
// best first, up to limit (0 = no limit). Exact hits rank first with
// similarity 1. It is the engine's search over a throwaway arena, with
// every hit's full entry list materialized.
func (fi *FuzzyIndex) Lookup(query string, limit int) []FuzzyHit {
	var sc Scratch
	cands := fi.search(&sc, textnorm.Normalize(query), limit)
	if len(cands) == 0 {
		return nil
	}
	hits := make([]FuzzyHit, len(cands))
	for i, c := range cands {
		hits[i] = FuzzyHit{Text: c.text, Similarity: c.sim, Entries: fi.dict.Lookup(c.text)}
	}
	return hits
}

// search is the one lookup pipeline: gram the already-normalized query,
// scan the postings, keep the top limit candidates best-first. Every
// intermediate lives in sc; the result aliases sc and is valid until
// the scratch's next search.
//
//websyn:hotpath
func (fi *FuzzyIndex) search(sc *Scratch, norm string, limit int) []scoredHit {
	if norm == "" {
		return nil
	}
	qGrams, qTotal := queryGramsInto(sc.qg[:0], norm)
	sc.qg = qGrams
	if len(qGrams) == 0 {
		// Very short queries produce no trigram; fall back to exact lookup.
		if len(fi.dict.lookupNormEntries(norm)) == 0 {
			return nil
		}
		sc.cands = append(sc.cands[:0], scoredHit{text: norm, sim: 1})
		return sc.cands
	}
	sc.cands = fi.scan(qGrams, len(qGrams), qTotal, sc.cands[:0])
	var kept []scoredHit
	kept, sc.heap = selectTopInto(sc.cands, limit, sc.heap)
	return kept
}

// scan is the per-index candidate generation and verification step over
// this index's strings only. qGrams must be the distinct trigrams of the
// already-normalized query (qDistinct = len(qGrams); qTotal = multiset
// total). Qualifying (text, similarity) pairs are appended to out,
// unsorted.
//
//websyn:hotpath
func (fi *FuzzyIndex) scan(qGrams []queryGram, qDistinct, qTotal int, out []scoredHit) []scoredHit {
	sc := fi.scratch.Get().(*fuzzyScratch)
	defer fi.scratch.Put(sc)

	// minAcc bounds the multiset intersection — always sound. The
	// distinct-count prunes (minShared against the per-string distinct
	// table and the accumulated distinct shared count) are only valid
	// when the query's grams are all distinct, i.e. the two intersection
	// counts coincide; repeated-gram queries fall back to the multiset
	// bound alone.
	minAcc := minSharedGrams(fi.minSim, qTotal)
	minShared := int32(0)
	if qDistinct == qTotal {
		minShared = minAcc
	}
	lo, hi := lengthWindow(fi.minSim, qTotal)

	// Candidate generation: walk each query gram's posting list,
	// accumulating the exact multiset intersection. Strings that cannot
	// pass the distinct-count or length prune are skipped before they
	// cost a scratch write.
	touched := sc.touched[:0]
	for _, qg := range qGrams {
		id, ok := fi.gramID[qg.text]
		if !ok {
			continue
		}
		for k := fi.offsets[id]; k < fi.offsets[id+1]; k++ {
			idx := fi.postings[k]
			if fi.distinct[idx] < minShared || fi.gramLen[idx] < lo || fi.gramLen[idx] > hi {
				continue
			}
			if sc.shared[idx] == 0 {
				touched = append(touched, idx)
			}
			sc.shared[idx]++
			m := fi.mults[k]
			if m > qg.count {
				m = qg.count
			}
			sc.acc[idx] += m
		}
	}
	sc.touched = touched // keep grown capacity for the next lookup

	// Verification: the accumulated intersection IS the Dice numerator,
	// so the similarity is exact — no re-gramming of the candidate.
	verified := int64(0)
	for _, idx := range touched {
		shared, acc := sc.shared[idx], sc.acc[idx]
		sc.shared[idx], sc.acc[idx] = 0, 0
		if shared < minShared || acc < minAcc {
			continue
		}
		verified++
		sim := 2 * float64(acc) / float64(qTotal+int(fi.gramLen[idx]))
		if sim < fi.minSim {
			continue
		}
		out = append(out, scoredHit{text: fi.strings[idx], sim: sim})
	}
	fi.verified.Add(verified)
	return out
}

// selectTopInto orders candidates best-first and keeps at most limit
// (0 = no limit), using a caller-supplied heap buffer (arena reuse: pass
// the scratch's buffer and keep the grown second result).
// When the candidate set is larger than the limit, a bounded heap of
// size limit replaces the full sort, so Lookup(q, 1) never sorts
// hundreds of hits. The kept set and its order are identical to a full
// sort followed by truncation (hitBetter is a total order).
//
//websyn:hotpath
func selectTopInto(cands []scoredHit, limit int, buf []scoredHit) (res, heapBuf []scoredHit) {
	if limit <= 0 || len(cands) <= limit {
		slices.SortFunc(cands, cmpHit)
		return cands, buf
	}
	// Min-heap on hitBetter with the *worst* kept candidate at the root.
	worse := func(a, b scoredHit) bool { return hitBetter(b, a) }
	h := buf[:0]
	for _, c := range cands {
		if len(h) < limit {
			h = append(h, c)
			for i := len(h) - 1; i > 0; { // sift up
				p := (i - 1) / 2
				if !worse(h[i], h[p]) {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
			continue
		}
		if !hitBetter(c, h[0]) {
			continue
		}
		h[0] = c
		for i := 0; ; { // sift down
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && worse(h[l], h[m]) {
				m = l
			}
			if r < len(h) && worse(h[r], h[m]) {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	slices.SortFunc(h, cmpHit)
	return h, h
}

// lookupArena is the engine's lookup: search over already-normalized
// text (arena spans are), resolving only the best entry per hit (an
// O(entries) scan instead of a sorted copy), because the engine never
// reads past the winner. The result aliases sc.hits and is valid until
// the scratch's next lookup.
//
//websyn:hotpath
func (fi *FuzzyIndex) lookupArena(sc *Scratch, norm string, limit int) []arenaHit {
	out := sc.hits[:0]
	for _, c := range fi.search(sc, norm, limit) {
		ah := arenaHit{text: c.text, sim: c.sim}
		if es := fi.dict.lookupNormEntries(c.text); len(es) > 0 {
			ah.best, ah.ok = bestEntryOf(es), true
		}
		out = append(out, ah)
	}
	sc.hits = out
	return out
}

// joinTokens joins normalized tokens with single spaces.
func joinTokens(tokens []string) string {
	n := 0
	for _, t := range tokens {
		n += len(t) + 1
	}
	if n == 0 {
		return ""
	}
	b := make([]byte, 0, n-1)
	for i, t := range tokens {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, t...)
	}
	return string(b)
}
