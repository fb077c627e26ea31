package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
)

// The generators below are the benchmark's inputs. They are deliberately
// self-contained — no math/rand, no internal/loadtest, no internal/rng —
// so a later change to the program cannot move what the benchmark sends.

// rng is splitmix64: tiny, seedable, and stable by definition.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

// fork derives an independent stream for a named purpose, so adding a
// draw to one generator never shifts another's sequence.
func (r *rng) fork(label string) *rng {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &rng{s: r.s ^ h.Sum64() ^ 0x9e3779b97f4a7c15}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// zipf samples ranks 0..n-1 with P(k) ∝ 1/(k+1)^s from a precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf}
}

func (z *zipf) sample(r *rng) int {
	k := sort.SearchFloat64s(z.cdf, r.float())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// Query classes.
const (
	classExact      = "exact"      // dictionary string verbatim, plus an intent word
	classTypo       = "typo"       // one character edit away from a dictionary string
	classSpanFuzzy  = "span-fuzzy" // tokens run together: only the trigram index bridges it
	classNoise      = "noise"      // background traffic with no entity in it
	classAttributes = "attributes" // entity + attribute phrase, sent to /v2/match
)

var (
	v1Classes = []string{classExact, classTypo, classSpanFuzzy, classNoise}
	classes   = append(v1Classes[:len(v1Classes):len(v1Classes)], classAttributes)
)

// federated is the query.Domain value sent as domains: ["*"].
const federated = "*"

// intents are the transactional words appended to entity strings (the
// paper's "indy 4 near san fran" shape). They carry a digit so that no
// dictionary of English words or model codes can contain them or sit one
// typo-correction away from them: an exact query's entity span can then
// never be extended or stolen, and must resolve by construction.
var intents = []string{"", "tickets2go", "reviews4u", "price2day", "buy4less", "near2me", "rent2nite"}

// noiseQueries is background traffic. Checked against the in-process
// answer only.
var noiseQueries = []string{
	"youtube", "weather forecast", "cheap flights", "online banking", "white pages",
	"driving directions", "lottery results", "horoscope today", "job listings", "pizza delivery",
	"currency converter", "used cars", "tax forms", "bus timetable", "dictionary lookup", "free ringtones",
}

// query is one generated request item.
type query struct {
	Text  string
	Class string
	// Domain routes the item: "" sends no routing field (single-Server
	// mode), a name sends domain: name, federated sends domains: ["*"].
	Domain string
	// SrcDomain/SrcEntity name the entity the query was generated from
	// (SrcEntity -1 for noise): the program-independent half of the check.
	SrcDomain string
	SrcEntity int
}

// V2 reports whether the item goes to /v2/match.
func (q query) V2() bool { return q.Class == classAttributes }

// source is a dictionary string owned by exactly one entity.
type source struct {
	Text   string
	Entity int
}

// queriesFor builds one domain's traffic from its unambiguous sources:
// per source an exact query and, when the domain has phrases, an
// attributes query; for one source in fuzzyEvery also a typo and (for a
// multi-token string) a span-fuzzy query.
func queriesFor(r *rng, domain string, srcs []source, phrases []string, fuzzyEvery int) []query {
	var out []query
	add := func(text, class string, s source) {
		out = append(out, query{Text: strings.TrimSpace(text), Class: class, Domain: domain, SrcDomain: domain, SrcEntity: s.Entity})
	}
	for i, s := range srcs {
		add(s.Text+" "+intents[r.intn(len(intents))], classExact, s)
		if i%fuzzyEvery == 0 {
			if t := mangle(r, s.Text); t != "" {
				add(t, classTypo, s)
			}
			if strings.Contains(s.Text, " ") {
				add(strings.ReplaceAll(s.Text, " ", "")+" "+intents[1+r.intn(len(intents)-1)], classSpanFuzzy, s)
			}
		}
		if len(phrases) > 0 {
			add(s.Text+" "+phrases[i%len(phrases)], classAttributes, s)
		}
	}
	return out
}

// noiseFor returns the noise class routed at domain.
func noiseFor(domain string) []query {
	out := make([]query, len(noiseQueries))
	for i, n := range noiseQueries {
		out[i] = query{Text: n, Class: classNoise, Domain: domain, SrcDomain: domain, SrcEntity: -1}
	}
	return out
}

// mangle applies one character edit — drop, transpose or duplicate — away
// from the string's ends; "" when the string is too short to survive it.
func mangle(r *rng, s string) string {
	if len(s) < 5 {
		return ""
	}
	i := 1 + r.intn(len(s)-2)
	switch r.intn(3) {
	case 0:
		return s[:i] + s[i+1:]
	case 1:
		if s[i] == ' ' || s[i+1] == ' ' {
			return s[:i] + s[i+1:]
		}
		return s[:i] + string(s[i+1]) + string(s[i]) + s[i+2:]
	default:
		return s[:i] + string(s[i]) + s[i:]
	}
}

// pickSources keeps a seeded sample of at most n sources.
func pickSources(r *rng, srcs []source, n int) []source {
	srcs = append([]source(nil), srcs...)
	r.shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
	if len(srcs) > n {
		srcs = srcs[:n]
	}
	return srcs
}

// ---- scale tier ----

// English letter frequencies (per mille), a..z.
var letterFreq = [26]int{82, 15, 28, 43, 127, 22, 20, 61, 70, 2, 8, 40, 24, 67, 75, 19, 1, 60, 63, 91, 28, 10, 24, 2, 20, 1}

const scaleVocabSize = 30000

// genVocabulary makes n distinct lower-case words of 2-10 letters with
// English-like letter frequencies. Rank in the slice is Zipf rank: short
// words come first, as in a real language.
func genVocabulary(r *rng, n int) []string {
	var cum [26]int
	total := 0
	for i, f := range letterFreq {
		total += f
		cum[i] = total
	}
	seen := make(map[string]bool, n)
	words := make([]string, 0, n)
	var b []byte
	for len(words) < n {
		// Length grows slowly with rank.
		l := 2 + r.intn(3) + len(words)*6/n
		b = b[:0]
		for len(b) < l {
			x := r.intn(total)
			c := sort.SearchInts(cum[:], x+1)
			b = append(b, byte('a'+c))
		}
		w := string(b)
		if seen[w] || nearIntent(w) {
			continue
		}
		seen[w] = true
		words = append(words, w)
	}
	return words
}

// nearIntent reports whether tok is an intent word or one edit from one.
func nearIntent(tok string) bool {
	for _, in := range intents[1:] {
		if withinOneEdit(tok, in) {
			return true
		}
	}
	return false
}

// withinOneEdit reports whether a and b differ by at most one insertion,
// deletion, substitution or adjacent transposition.
func withinOneEdit(a, b string) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b)-len(a) > 1 {
		return false
	}
	i := 0
	for i < len(a) && a[i] == b[i] {
		i++
	}
	if len(a) == len(b) {
		if i == len(a) || a[i+1:] == b[i+1:] {
			return true
		}
		return i+1 < len(a) && a[i] == b[i+1] && a[i+1] == b[i] && a[i+2:] == b[i+2:]
	}
	return a[i:] == b[i+1:]
}

// scaleStringsPerEntity is the number of dictionary strings each scale
// entity contributes.
const scaleStringsPerEntity = 5

// scaleEntity is one synthetic catalogue row: a canonical name and four
// aliases of falling confidence.
type scaleEntity struct {
	Strings [scaleStringsPerEntity]string // [0] is the canonical
}

// scaleScores are the dictionary confidences of the five strings.
var scaleScores = [scaleStringsPerEntity]float64{1.0, 0.9, 0.8, 0.6, 0.5}

// modelToken is entity id's model number: two seeded letters and a
// decimal that is a bijection of id, so every string that carries it
// belongs to exactly one entity.
func modelToken(r *rng, id, n int) string {
	// 7919 is coprime to any n that is not a multiple of it.
	return fmt.Sprintf("%c%c%d", 'a'+r.intn(26), 'a'+r.intn(26), 1000+(id*7919)%n)
}

// genScale makes n entities. Words are drawn Zipf(1.05) from a 30k-word
// vocabulary, so a few words (and their trigrams) occur in a large share
// of the strings and posting lists are as skewed as a real catalogue's.
func genScale(seed uint64, n int) []scaleEntity {
	base := newRNG(seed).fork("scale")
	vocab := genVocabulary(base.fork("vocab"), scaleVocabSize)
	brands := vocab[:2000]
	r := base.fork("entities")
	zw := newZipf(len(vocab), 1.05)
	zb := newZipf(len(brands), 1.05)
	out := make([]scaleEntity, n)
	for id := range out {
		brand := brands[zb.sample(r)]
		nw := 1 + r.intn(3)
		ws := make([]string, nw)
		for i := range ws {
			ws[i] = vocab[zw.sample(r)]
		}
		words := strings.Join(ws, " ")
		model := modelToken(r, id, n)
		out[id].Strings = [scaleStringsPerEntity]string{
			brand + " " + words + " " + model,
			words + " " + model,
			brand + " " + model,
			brand + " " + words,
			model,
		}
	}
	return out
}

// scaleSources returns the unambiguous strings of entities [lo, hi): the
// ones that carry the entity's own model token.
func scaleSources(ents []scaleEntity, lo, hi int) []source {
	var out []source
	for id := lo; id < hi && id < len(ents); id++ {
		for _, i := range []int{0, 1, 2} {
			out = append(out, source{ents[id].Strings[i], id})
		}
	}
	return out
}
