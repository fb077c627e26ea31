package match

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"websyn/internal/textnorm"
)

// Engine.Match runs the pipeline over a fresh Scratch per call; these
// tests pin a long-lived, reused Scratch byte-identical to it, so stale
// buffers and views stranded by arena reuse surface as diffs. The
// repo-root differential suite repeats the comparison over the three
// full domain snapshots (movies, cameras, software).

// diffQueries covers every code path of the pipeline: exact trie
// spans, typos, concatenations, span-fuzzy bridges, remainders, empty
// and degenerate input, Unicode, and alternate-producing ambiguity.
var diffQueries = []string{
	"indy 4 near san fran",
	"Indiana Jones and the Kingdom of the Crystal Skull",
	"kingdom of the cristal skull tickets",
	"twilght showtimes",
	"madagascar2",
	"madagascar 2 dvd",
	"digital rebel xt review",
	"canon eos 350d",
	"cannon eos 350d",
	"quantum of solace imdb",
	"kungfu panda",
	"!!!",
	"   ",
	"a",
	"x",
	"350d",
	"MADAGASCAR Escape 2 AFRICA",
	"indianajones 4 tickets",
	"skull crystal kingdom",
	"Mötley Crüe tickets", // non-ASCII tokens
	"naïve café twilight",
	"the the the",
	"twilight twilight twilight",
	"indy 4 indy 4",
	"reviews",
	"showtimes near me",
}

// diffRequests crosses queries with the request-shape axes that change
// response structure.
func diffRequests() []Request {
	var reqs []Request
	for _, q := range diffQueries {
		for _, mode := range []Mode{ModeSpan, ModeSegment, ModeFuzzy} {
			for _, topK := range []int{0, 1, 3} {
				reqs = append(reqs, Request{Query: q, Mode: mode, TopK: topK})
			}
			reqs = append(reqs, Request{Query: q, Mode: mode, Explain: true})
			reqs = append(reqs, Request{Query: q, Mode: mode, MinSim: 0.7})
			reqs = append(reqs, Request{Query: q, Mode: mode, MaxSpanTokens: 2})
		}
	}
	return reqs
}

// assertResponsesIdentical compares a fresh-arena response with a
// reused-arena response byte-for-byte (timings excluded — they are measurements, not
// results).
func assertResponsesIdentical(t *testing.T, req Request, ref Response, arena *Response) {
	t.Helper()
	ref.Timing = Timing{}
	ac := CloneResponse(arena)
	ac.Timing = Timing{}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	arenaJSON, err := json.Marshal(ac)
	if err != nil {
		t.Fatal(err)
	}
	if string(refJSON) != string(arenaJSON) {
		t.Errorf("request %+v:\nreference: %s\narena:     %s", req, refJSON, arenaJSON)
		return
	}
	// JSON can hide nil-vs-empty differences behind omitempty; the struct
	// forms must agree too, or DeepEqual-based callers diverge.
	if !reflect.DeepEqual(ref, ac) {
		t.Errorf("request %+v: JSON equal but structs differ:\nreference: %#v\narena:     %#v", req, ref, ac)
	}
}

// runDifferential drives every request shape through one shared scratch
// and through Match's fresh one, so reuse bugs (stale buffers leaking
// across requests) surface as diffs.
func runDifferential(t *testing.T, e *Engine) {
	t.Helper()
	sc := NewScratch()
	for _, req := range diffRequests() {
		ref, refErr := e.Match(req)
		arena, arenaErr := e.MatchScratch(req, sc)
		if (refErr == nil) != (arenaErr == nil) {
			t.Fatalf("request %+v: reference err %v, arena err %v", req, refErr, arenaErr)
		}
		if refErr != nil {
			if refErr.Error() != arenaErr.Error() {
				t.Fatalf("request %+v: reference err %q, arena err %q", req, refErr, arenaErr)
			}
			continue
		}
		assertResponsesIdentical(t, req, ref, arena)
	}
}

func TestArenaDifferentialFlatIndex(t *testing.T) {
	runDifferential(t, testEngine())
}

func TestArenaDifferentialNoFuzzyIndex(t *testing.T) {
	d := engineDict()
	runDifferential(t, NewEngine(d, nil, engineCanonicals(), 0.55))
}

func TestArenaDifferentialNoEntityTable(t *testing.T) {
	d := engineDict()
	runDifferential(t, NewEngine(d, d.NewFuzzyIndex(0.55), nil, 0.55))
}

// TestSegmentModeMatchesSegmentTokens pins the pipeline's trie stage to
// its independent reference, Dictionary.SegmentTokens: in ModeSegment the
// spans, entities, correction flags and remainder must agree, modulo
// matches the engine drops for resolving outside its entity table (their
// tokens stay consumed).
func TestSegmentModeMatchesSegmentTokens(t *testing.T) {
	d := engineDict()
	d.Add("ghost entity", Entry{EntityID: 99, Score: 1, Source: "mined"}) // outside engineCanonicals
	canon := engineCanonicals()
	e := NewEngine(d, d.NewFuzzyIndex(0.55), canon, 0.55)
	sc := NewScratch()
	reqs := append(diffRequests(), Request{Query: "ghost entity indy 4 tickets", Mode: ModeSegment})
	for _, req := range reqs {
		if req.Mode != ModeSegment {
			continue
		}
		got, err := e.MatchScratch(req, sc)
		if err != nil {
			t.Fatalf("request %+v: %v", req, err)
		}
		seg := d.SegmentTokens(textnorm.Tokenize(req.Query))
		var want []Match
		for _, m := range seg.Matches {
			if m.EntityID >= 0 && m.EntityID < len(canon) {
				want = append(want, m)
			}
		}
		if len(got.Matches) != len(want) {
			t.Errorf("request %+v: %d matches, SegmentTokens has %d:\n got %+v\nwant %+v", req, len(got.Matches), len(want), got.Matches, want)
			continue
		}
		for i, m := range got.Matches {
			w := want[i]
			if m.Start != w.Start || m.End != w.End || m.EntityID != w.EntityID ||
				m.Corrected != w.Corrected || m.Span != w.Text || m.Score != w.Score || m.Source != w.Source {
				t.Errorf("request %+v match %d:\n got %+v\nwant %+v", req, i, m, w)
			}
		}
		if got.Remainder != seg.Remainder {
			t.Errorf("request %+v: remainder %q, SegmentTokens %q", req, got.Remainder, seg.Remainder)
		}
	}
}

// TestArenaDifferentialRandom hammers both arenas with generated queries
// mixing dictionary vocabulary, typos, concatenations and noise.
func TestArenaDifferentialRandom(t *testing.T) {
	e := testEngine()
	rng := rand.New(rand.NewSource(61))
	vocab := []string{
		"indiana", "jones", "kingdom", "crystal", "cristal", "skull",
		"indy", "4", "canon", "cannon", "eos", "350d", "twilight",
		"twilght", "madagascar", "madagascar2", "escape", "2", "africa",
		"tickets", "dvd", "review", "near", "san", "fran", "zzzz", "café",
	}
	sc := NewScratch()
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(6)
		parts := make([]string, n)
		for j := range parts {
			parts[j] = vocab[rng.Intn(len(vocab))]
		}
		req := Request{
			Query: strings.Join(parts, " "),
			Mode:  []Mode{ModeSpan, ModeSegment, ModeFuzzy}[rng.Intn(3)],
			TopK:  rng.Intn(4),
		}
		ref, refErr := e.Match(req)
		arena, arenaErr := e.MatchScratch(req, sc)
		if (refErr == nil) != (arenaErr == nil) {
			t.Fatalf("request %+v: reference err %v, arena err %v", req, refErr, arenaErr)
		}
		if refErr == nil {
			assertResponsesIdentical(t, req, ref, arena)
		}
	}
}

// TestScratchTokenizeMatchesTextnorm pins the arena tokenizer to
// textnorm.Tokenize over edge-case inputs: the whole differential
// guarantee rests on the two producing identical token sequences.
func TestScratchTokenizeMatchesTextnorm(t *testing.T) {
	inputs := append([]string{}, diffQueries...)
	inputs = append(inputs,
		"", " ", "-", "a-b", "A.B.C", "ÉCOLE supérieure", "ΑΒΓ δεζ",
		"日本語のクエリ", "emoji 🎬 query", "tab\tand\nnewline",
		"x\xffy", "\xff\xfe", "ABC123def456",
	)
	sc := NewScratch()
	for _, in := range inputs {
		want := textnorm.Tokenize(in)
		got := sc.Tokenize(in)
		if len(got) != len(want) {
			t.Fatalf("Tokenize(%q): got %q want %q", in, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Tokenize(%q)[%d]: got %q want %q", in, i, got[i], want[i])
			}
		}
		if norm := sc.Norm(); norm != textnorm.Normalize(in) {
			t.Fatalf("Norm(%q) = %q, want %q", in, norm, textnorm.Normalize(in))
		}
	}
}

// TestEditWithin1MatchesReference pins the allocation-free distance-1
// check behind typo correction to textnorm's banded DP.
func TestEditWithin1MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("abcdé日")
	randWord := func(n int) string {
		r := make([]rune, n)
		for i := range r {
			r[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(r)
	}
	mutate := func(s string) string {
		r := []rune(s)
		switch rng.Intn(3) {
		case 0: // substitute
			if len(r) > 0 {
				r[rng.Intn(len(r))] = alphabet[rng.Intn(len(alphabet))]
			}
		case 1: // delete
			if len(r) > 0 {
				i := rng.Intn(len(r))
				r = append(r[:i], r[i+1:]...)
			}
		default: // insert
			i := rng.Intn(len(r) + 1)
			r = append(r[:i], append([]rune{alphabet[rng.Intn(len(alphabet))]}, r[i:]...)...)
		}
		return string(r)
	}
	for i := 0; i < 3000; i++ {
		a := randWord(rng.Intn(8))
		b := a
		for k := rng.Intn(3); k > 0; k-- {
			b = mutate(b)
		}
		if rng.Intn(5) == 0 {
			b = randWord(rng.Intn(8))
		}
		got := editWithin1(a, b)
		want := textnorm.EditDistanceAtMost(a, b, 1)
		if got != want {
			t.Fatalf("editWithin1(%q, %q) = %v, reference %v", a, b, got, want)
		}
	}
}

// TestQueryGramsIntoMatchesQueryGrams pins the gram accumulator, fed a
// reused buffer, to a map count over textnorm.CharNGrams — including the
// map takeover past linearDedupMax.
func TestQueryGramsIntoMatchesQueryGrams(t *testing.T) {
	long := strings.Repeat("abcdefghijklmnopqrstuvwxyz0123456789 ", 4)
	inputs := []string{
		"", "ab", "abc", "indy 4", "madagascar escape 2 africa",
		"aaaaaaaa", "ααβγ trigram", long, long + long,
	}
	var buf []queryGram
	for _, in := range inputs {
		in = textnorm.Normalize(in) // queryGramsInto's contract
		var want []queryGram
		wantTotal := 0
		at := map[string]int{}
		for _, g := range textnorm.CharNGrams(in, fuzzyGramSize) {
			wantTotal++
			if i, ok := at[g]; ok {
				want[i].count++
				continue
			}
			at[g] = len(want)
			want = append(want, queryGram{text: g, count: 1})
		}
		var got []queryGram
		var gotTotal int
		got, gotTotal = queryGramsInto(buf[:0], in)
		buf = got
		if gotTotal != wantTotal || len(got) != len(want) {
			t.Fatalf("queryGramsInto(%q): %d grams total %d, want %d total %d",
				in, len(got), gotTotal, len(want), wantTotal)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("queryGramsInto(%q)[%d] = %+v, want %+v", in, i, got[i], want[i])
			}
		}
	}
}

// TestCloneResponseIndependence proves a cloned response survives arena
// reuse: the original scratch is deliberately clobbered by a second
// request and the clone must not change.
func TestCloneResponseIndependence(t *testing.T) {
	e := testEngine()
	sc := NewScratch()
	resp, err := e.MatchScratch(Request{Query: "indy 4 near san fran", Explain: true}, sc)
	if err != nil {
		t.Fatal(err)
	}
	clone := CloneResponse(resp)
	before, _ := json.Marshal(clone)
	// Clobber the arena with a longer, different request.
	if _, err := e.MatchScratch(Request{Query: "madagascar escape 2 africa dvd kingdom of the cristal skull tickets", Explain: true}, sc); err != nil {
		t.Fatal(err)
	}
	after, _ := json.Marshal(clone)
	if string(before) != string(after) {
		t.Fatalf("clone mutated by arena reuse:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestScratchReuseAcrossSizes shrinks and grows queries through one
// scratch so stale-capacity bugs (token views outliving their bytes)
// would surface.
func TestScratchReuseAcrossSizes(t *testing.T) {
	e := testEngine()
	sc := NewScratch()
	queries := []string{
		"madagascar escape 2 africa dvd box set special edition",
		"indy 4",
		"kingdom of the cristal skull tickets near san fran",
		"x",
		"twilght",
	}
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			req := Request{Query: q}
			ref, err := e.Match(req)
			if err != nil {
				t.Fatal(err)
			}
			arena, err := e.MatchScratch(req, sc)
			if err != nil {
				t.Fatal(err)
			}
			assertResponsesIdentical(t, req, ref, arena)
		}
	}
}

// BenchmarkMatchScratch is the engine-level arena benchmark; the serving
// path's numbers live in the repo-root bench suite.
func BenchmarkMatchScratch(b *testing.B) {
	e := testEngine()
	sc := NewScratch()
	for _, bc := range []struct{ name, query string }{
		{"exact", "indy 4 near san fran"},
		{"typo", "twilght showtimes"},
		{"span-fuzzy", "kingdom of the cristal skull tickets"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			req := Request{Query: bc.query}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.MatchScratch(req, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var _ = fmt.Sprintf // keep fmt imported if trace helpers change
