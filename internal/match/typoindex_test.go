package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"websyn/internal/alias"
	"websyn/internal/entity"
	"websyn/internal/textnorm"
)

// correctScan is the typo corrector as it was before the index: a pass
// over the whole vocabulary. It stays, verbatim, as the oracle the
// indexed corrector is differentially tested against.
func (d *Dictionary) correctScan(tok string) string {
	if len(tok) < 4 || d.vocab[tok] {
		return ""
	}
	best := ""
	for v := range d.vocab {
		if len(v) < 3 {
			continue
		}
		dl := len(v) - len(tok)
		if dl > 1 || dl < -1 {
			continue
		}
		if editWithin1(tok, v) {
			if best != "" && best != v {
				return "" // ambiguous correction: refuse to guess
			}
			best = v
		}
	}
	return best
}

// scanNeighbours counts the vocabulary tokens correctScan would accept
// for tok: 0 is a miss, 1 a hit, more an ambiguity.
func (d *Dictionary) scanNeighbours(tok string) int {
	n := 0
	for v := range d.vocab {
		if dl := len(v) - len(tok); len(v) >= 3 && dl <= 1 && dl >= -1 && editWithin1(tok, v) {
			n++
		}
	}
	return n
}

// typoAlphabet mixes 1-, 2- and 3-byte runes, so a one-rune edit moves
// the byte length by 0 to 3 and the byte-length guard and the rune
// deletions disagree.
var typoAlphabet = []rune("abcdeé日")

// mutations returns the one-edit neighbours of tok the typo channels
// produce — drop, transpose, double, substitute, insert — one of each,
// at rng-chosen positions.
func mutations(rng *rand.Rand, tok string, alphabet []rune) []string {
	r := []rune(tok)
	if len(r) == 0 {
		return nil
	}
	pick := func() rune { return alphabet[rng.Intn(len(alphabet))] }
	edit := func(f func(r []rune) []rune) string { return string(f(append([]rune(nil), r...))) }
	i := rng.Intn(len(r))
	out := []string{
		edit(func(r []rune) []rune { return append(r[:i], r[i+1:]...) }),
		edit(func(r []rune) []rune { return append(r[:i+1], r[i:]...) }),
		edit(func(r []rune) []rune { r[i] = pick(); return r }),
		edit(func(r []rune) []rune { return append(r[:i], append([]rune{pick()}, r[i:]...)...) }),
		edit(func(r []rune) []rune { return append(r, pick()) }),
	}
	if len(r) > 1 {
		j := rng.Intn(len(r) - 1)
		out = append(out, edit(func(r []rune) []rune { r[j], r[j+1] = r[j+1], r[j]; return r }))
	}
	return out
}

// syntheticDict builds a seeded dictionary of at least n distinct
// tokens in the three shapes a catalog-scale vocabulary has: dense
// short words (many one-edit neighbours, so corrections are often
// ambiguous), kx48213-style model codes, and words over a multi-byte
// alphabet. Tokens of 1 and 2 bytes are included so the minimum-length
// guards are exercised.
func syntheticDict(seed int64, n int) *Dictionary {
	rng := rand.New(rand.NewSource(seed))
	word := func(alphabet []rune, lo, hi int) string {
		r := make([]rune, lo+rng.Intn(hi-lo+1))
		for i := range r {
			// Squaring skews the draw toward the alphabet's head: a
			// Zipf-like letter distribution that clusters the words.
			u := rng.Float64()
			r[i] = alphabet[int(u*u*float64(len(alphabet)))]
		}
		return string(r)
	}
	d := NewDictionary()
	id := 0
	for len(d.vocab) < n {
		var s string
		switch id % 4 {
		case 0:
			s = word([]rune("etaoinshrdlu"), 1, 8)
		case 1:
			s = fmt.Sprintf("%s%05d", word([]rune("kxdsmz"), 2, 2), rng.Intn(100000))
		case 2:
			s = word(typoAlphabet, 1, 7)
		default:
			s = word([]rune("abcdefghijklmnopqrstuvwxyz0123456789"), 3, 12)
		}
		d.Add(s, Entry{EntityID: id, Score: 1, Source: "synthetic"})
		id++
	}
	return d
}

// catalogDict compiles one vertical's whole alias universe — every
// string its simulated users type — into a dictionary.
func catalogDict(tb testing.TB, load func() (*entity.Catalog, error), p alias.Params) *Dictionary {
	tb.Helper()
	cat, err := load()
	if err != nil {
		tb.Fatal(err)
	}
	m, err := alias.Build(cat, p)
	if err != nil {
		tb.Fatal(err)
	}
	d := NewDictionary()
	for _, e := range m.Entries() {
		d.Add(e.Text, Entry{EntityID: max(e.EntityID, 0), Score: e.Volume, Source: "alias"})
	}
	return d
}

var scale90k = sync.OnceValue(func() *Dictionary { return syntheticDict(90, 90_000) })

// assertCorrectAgrees fails unless the indexed corrector and the scan
// answer tok identically.
func assertCorrectAgrees(t *testing.T, d *Dictionary, tok string) {
	t.Helper()
	if got, want := d.correct(tok), d.correctScan(tok); got != want {
		t.Fatalf("correct(%q) = %q, scan says %q", tok, got, want)
	}
}

// TestTypoCorrectAgreesWithScan is the differential test behind "same
// answers by construction": on the three verticals and on a 90k-token
// synthetic vocabulary, every vocabulary token, the one-edit mutations
// of a sample of them, and random out-of-vocabulary strings get the
// scan's answer from the index.
func TestTypoCorrectAgreesWithScan(t *testing.T) {
	if n := len(scale90k().vocab); n < 90_000 {
		t.Fatalf("synthetic vocabulary has %d tokens, want >= 90000", n)
	}
	cases := []struct {
		name   string
		dict   *Dictionary
		sample int // vocabulary tokens mutated; every token when <= 0
	}{
		{"movies", catalogDict(t, entity.Movies2008, alias.MovieParams()), 0},
		{"cameras", catalogDict(t, entity.Cameras2008, alias.CameraParams()), 0},
		{"software", catalogDict(t, entity.Software2008, alias.SoftwareParams()), 0},
		{"synthetic90k", scale90k(), 150},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := c.dict
			vocab := d.tokens
			for v := range d.vocab {
				assertCorrectAgrees(t, d, v)
			}
			rng := rand.New(rand.NewSource(17))
			alphabet := append([]rune("aeiost0123"), typoAlphabet...)
			hits, refusals := 0, 0
			for i, v := range vocab {
				if c.sample > 0 && i%(len(vocab)/c.sample) != 0 {
					continue
				}
				for _, m := range mutations(rng, v, alphabet) {
					assertCorrectAgrees(t, d, m)
					if d.HasToken(m) || len(m) < typoMinQueryLen {
						continue
					}
					if d.correct(m) != "" {
						hits++
					} else {
						refusals++
					}
				}
			}
			for i := 0; i < 200; i++ {
				r := make([]rune, 3+rng.Intn(8))
				for j := range r {
					r[j] = alphabet[rng.Intn(len(alphabet))]
				}
				assertCorrectAgrees(t, d, string(r))
			}
			// The sweep must have exercised both outcomes, or agreement
			// on it says little.
			if hits == 0 || refusals == 0 {
				t.Fatalf("%d corrections, %d refusals: the mutation sweep is one-sided", hits, refusals)
			}
		})
	}
}

// TestTypoIndexDeterministic pins the index as a pure function of the
// Add sequence: map iteration order leaves no trace in it, so two boots
// of one snapshot probe at the same cost.
func TestTypoIndexDeterministic(t *testing.T) {
	a, b := NewDictionary(), NewDictionary()
	for i, w := range scale90k().tokens[:4000] {
		a.Add(w, Entry{EntityID: i})
		b.Add(w, Entry{EntityID: i})
	}
	if !reflect.DeepEqual(a.typoIndex(), b.typoIndex()) {
		t.Fatal("two builds over the same Add sequence differ")
	}
}

// TestTypoIndexInvalidatedByAdd covers the index's lifecycle: it is
// built once under concurrent first use of a frozen dictionary, kept
// while Add brings no new token, and rebuilt after one does — a token
// added after a probe is found by the next.
func TestTypoIndexInvalidatedByAdd(t *testing.T) {
	d := demoDict()
	readers := func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if got := d.correct("twilght"); got != "twilight" {
						t.Errorf("correct(twilght) = %q, want twilight", got)
						return
					}
					d.Segment("madagascr 2 showtimes")
				}
			}()
		}
		wg.Wait()
	}
	readers() // cold: the goroutines race to build
	built := d.typo.Load()
	if built == nil {
		t.Fatal("no index after first use")
	}
	if got := d.correct("zootopa"); got != "" {
		t.Fatalf("correct(zootopa) = %q before zootopia was added", got)
	}

	d.Add("twilight", Entry{EntityID: 5, Score: 0.5, Source: "mined"}) // no new token
	if d.typo.Load() != built {
		t.Fatal("Add without a new token dropped the index")
	}
	d.Add("zootopia", Entry{EntityID: 9, Score: 1, Source: "mined"})
	if d.typo.Load() != nil {
		t.Fatal("Add with a new token kept the stale index")
	}
	if got := d.correct("zootopa"); got != "zootopia" {
		t.Fatalf("correct(zootopa) = %q after Add, want zootopia", got)
	}
	readers() // frozen again: concurrent readers share the rebuilt index
	e := NewEngine(NewDictionary(), nil, nil, 0)
	if e.dict.typo.Load() == nil {
		t.Fatal("NewEngine did not pre-build the typo index")
	}
}

var typoFuzzDict = sync.OnceValue(func() *Dictionary {
	d := syntheticDict(7, 3000)
	for _, s := range []string{
		"twilight", "madagascar", "amélie", "misérables", "東京物語", "東京物", "京物語",
		"aaaa", "aaab", "abab", "baba", "wall", "walle", "well",
	} {
		d.Add(s, Entry{Source: "seed"})
	}
	return d
})

// FuzzTypoCorrectAgreesWithScan feeds arbitrary text through the
// tokenizer and checks every token against the scan. The corrector only
// ever sees tokenizer output — textnorm.Tokenize never emits invalid
// UTF-8 (it decodes runes and drops U+FFFD as a separator) — so that is
// the input space fuzzed, not raw bytes.
func FuzzTypoCorrectAgreesWithScan(f *testing.F) {
	for _, s := range []string{
		"twilght", "madagascr 2", "Amelie from Montmartre", "東京物 語", "aaa aaaa aaaaa abba",
		"kx48213 kx4821 xk48213", "wal-le walll", "misérable", "\xff\xfetwilight\x80",
	} {
		f.Add(s)
	}
	d := typoFuzzDict()
	f.Fuzz(func(t *testing.T, s string) {
		for _, tok := range textnorm.Tokenize(s) {
			assertCorrectAgrees(t, d, tok)
		}
	})
}

// typoBenchTokens returns a fixed mix of out-of-vocabulary tokens for d:
// equal parts unique corrections, ambiguous ones and misses.
func typoBenchTokens(b *testing.B, d *Dictionary) []string {
	b.Helper()
	const perClass = 32
	rng := rand.New(rand.NewSource(5))
	var classes [3][]string // miss, hit, ambiguous
	full := func() bool {
		return len(classes[0]) == perClass && len(classes[1]) == perClass && len(classes[2]) == perClass
	}
	vocab := d.tokens
	for tries := 0; !full(); tries++ {
		if tries > 100_000 {
			b.Fatalf("token mix not filled: %d misses, %d hits, %d ambiguous",
				len(classes[0]), len(classes[1]), len(classes[2]))
		}
		v := vocab[rng.Intn(len(vocab))]
		for _, m := range append(mutations(rng, v, []rune("aeiost0123")), v+"2go") {
			if len(m) < typoMinQueryLen || d.HasToken(m) {
				continue
			}
			if c := min(d.scanNeighbours(m), 2); len(classes[c]) < perClass {
				classes[c] = append(classes[c], m)
			}
		}
	}
	return append(append(classes[0], classes[1]...), classes[2]...)
}

var typoSink string

// BenchmarkTypoCorrect measures one corrector call on an
// out-of-vocabulary token — the cost every unknown query token pays.
func BenchmarkTypoCorrect(b *testing.B) {
	for _, c := range []struct {
		name string
		dict *Dictionary
	}{
		{"toy", catalogDict(b, entity.Movies2008, alias.MovieParams())},
		{"scale90k", scale90k()},
	} {
		b.Run(c.name, func(b *testing.B) {
			d := c.dict
			toks := typoBenchTokens(b, d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				typoSink = d.correct(toks[i%len(toks)])
			}
		})
	}
}

// BenchmarkTypoIndexBuild measures what NewEngine (and so every boot
// and hot reload) pays to index a catalog-scale vocabulary.
func BenchmarkTypoIndexBuild(b *testing.B) {
	b.Run("scale90k", func(b *testing.B) {
		tokens := scale90k().tokens
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ix := buildTypoIndex(tokens); len(ix.slots) == 0 {
				b.Fatal("empty index")
			}
		}
	})
}
