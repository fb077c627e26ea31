package match

import (
	"fmt"
	"strings"
	"testing"
)

// engineDict mirrors demoDict plus strings that exercise the span-fuzzy
// path (multi-token mined synonyms reachable only through trigrams).
func engineDict() *Dictionary {
	d := demoDict()
	d.Add("kingdom of the crystal skull", Entry{EntityID: 1, Score: 0.7, Source: "mined"})
	d.Add("quantum of solace", Entry{EntityID: 5, Score: 1.0, Source: "canonical"})
	return d
}

// engineCanonicals is an entity table covering engineDict's IDs 0..5.
func engineCanonicals() []string {
	return []string{
		"",
		"Indiana Jones and the Kingdom of the Crystal Skull",
		"Canon EOS 350D",
		"Twilight",
		"Madagascar: Escape 2 Africa",
		"Quantum of Solace",
	}
}

func testEngine() *Engine {
	d := engineDict()
	return NewEngine(d, d.NewFuzzyIndex(0.55), engineCanonicals(), 0.55)
}

func TestEngineSegmentModeMatchesDictionary(t *testing.T) {
	e := testEngine()
	resp, err := e.Match(Request{Query: "Indy 4 near San Fran", Mode: ModeSegment})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Query != "indy 4 near san fran" {
		t.Fatalf("Query = %q", resp.Query)
	}
	if len(resp.Matches) != 1 {
		t.Fatalf("matches = %+v", resp.Matches)
	}
	m := resp.Matches[0]
	if m.EntityID != 1 || m.Span != "indy 4" || m.Method != MethodTrie ||
		m.Canonical != "Indiana Jones and the Kingdom of the Crystal Skull" {
		t.Fatalf("match = %+v", m)
	}
	if resp.Remainder != "near san fran" {
		t.Fatalf("remainder = %q", resp.Remainder)
	}
}

func TestEngineTypoCorrectionMethod(t *testing.T) {
	e := testEngine()
	resp, err := e.Match(Request{Query: "twilght showtimes", Mode: ModeSegment})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 1 || resp.Matches[0].Method != MethodTrieTypo || !resp.Matches[0].Corrected {
		t.Fatalf("matches = %+v", resp.Matches)
	}
}

// TestEngineSpanFuzzy is the tentpole capability: a multi-token span the
// trie cannot reach (typo beyond edit distance 1 in the middle of a
// mined synonym) resolves through the trigram index, and the rest of the
// query survives as remainder.
func TestEngineSpanFuzzy(t *testing.T) {
	e := testEngine()
	// "kristol" -> "crystal" is 3 edits: per-token correction (distance 1)
	// cannot bridge it, so the trie never reaches the mined synonym.
	resp, err := e.Match(Request{Query: "kingdom of the kristol skull tickets"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 1 {
		t.Fatalf("matches = %+v", resp.Matches)
	}
	m := resp.Matches[0]
	if m.Method != MethodSpanFuzzy || m.EntityID != 1 {
		t.Fatalf("match = %+v", m)
	}
	if m.Span != "kingdom of the crystal skull" {
		t.Fatalf("resolved dictionary string = %q", m.Span)
	}
	if m.Start != 0 || m.End != 5 {
		t.Fatalf("span window = [%d,%d), want [0,5)", m.Start, m.End)
	}
	if m.Similarity <= 0.55 || m.Similarity >= 1 {
		t.Fatalf("similarity = %v", m.Similarity)
	}
	if resp.Remainder != "tickets" {
		t.Fatalf("remainder = %q (span over-extended?)", resp.Remainder)
	}

	// Segment mode must NOT resolve it: that is the old behavior.
	seg, err := e.Match(Request{Query: "kingdom of the kristol skull tickets", Mode: ModeSegment})
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Matches) != 0 {
		t.Fatalf("segment mode resolved the span: %+v", seg.Matches)
	}
}

func TestEngineSpanFuzzyConcatenation(t *testing.T) {
	e := testEngine()
	resp, err := e.Match(Request{Query: "madagascar2 dvd"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) == 0 || resp.Matches[0].EntityID != 4 {
		t.Fatalf("matches = %+v", resp.Matches)
	}
	if resp.Matches[0].Method != MethodSpanFuzzy {
		t.Fatalf("method = %q", resp.Matches[0].Method)
	}
}

func TestEngineSpanRespectsMinSim(t *testing.T) {
	e := testEngine()
	resp, err := e.Match(Request{Query: "kingdom of the kristol skull", MinSim: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 0 {
		t.Fatalf("min_sim 0.99 still matched: %+v", resp.Matches)
	}
	if resp.Remainder != "kingdom of the kristol skull" {
		t.Fatalf("remainder = %q", resp.Remainder)
	}
}

func TestEngineFuzzyMode(t *testing.T) {
	e := testEngine()
	resp, err := e.Match(Request{Query: "quantom of solace", Mode: ModeFuzzy, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) == 0 {
		t.Fatal("no fuzzy hits")
	}
	m := resp.Matches[0]
	if m.EntityID != 5 || m.Method != MethodFuzzy || m.Span != "quantum of solace" {
		t.Fatalf("hit = %+v", m)
	}
	if m.Similarity <= 0 || m.Similarity >= 1 {
		t.Fatalf("similarity = %v", m.Similarity)
	}
	if resp.Remainder != "" {
		t.Fatalf("remainder = %q", resp.Remainder)
	}
}

func TestEngineFuzzyModeWithoutIndex(t *testing.T) {
	d := engineDict()
	e := NewEngine(d, nil, nil, 0)
	if _, err := e.Match(Request{Query: "anything", Mode: ModeFuzzy}); err == nil {
		t.Fatal("fuzzy mode without an index did not error")
	}
	// Span mode degrades to segmentation instead of erroring.
	resp, err := e.Match(Request{Query: "indy 4 tickets"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 1 || resp.Matches[0].Method != MethodTrie {
		t.Fatalf("degraded span mode: %+v", resp.Matches)
	}
}

func TestEngineAlternatesOnAmbiguousSpan(t *testing.T) {
	d := engineDict()
	d.Add("shared title", Entry{EntityID: 3, Score: 0.9, Source: "mined"})
	d.Add("shared title", Entry{EntityID: 4, Score: 0.6, Source: "mined"})
	e := NewEngine(d, d.NewFuzzyIndex(0.55), engineCanonicals(), 0.55)
	resp, err := e.Match(Request{Query: "shared title", TopK: 3, Mode: ModeSegment})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 1 {
		t.Fatalf("matches = %+v", resp.Matches)
	}
	m := resp.Matches[0]
	if m.EntityID != 3 || len(m.Alternates) != 1 || m.Alternates[0].EntityID != 4 {
		t.Fatalf("alternates = %+v", m)
	}
	// TopK 1 suppresses alternates entirely.
	resp, err = e.Match(Request{Query: "shared title", TopK: 1, Mode: ModeSegment})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches[0].Alternates) != 0 {
		t.Fatalf("TopK=1 still produced alternates: %+v", resp.Matches[0])
	}
}

func TestEngineExplainTrace(t *testing.T) {
	e := testEngine()
	resp, err := e.Match(Request{Query: "indy 4 kingdom of the kristol skull", Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Trace) == 0 {
		t.Fatal("no trace despite Explain")
	}
	var stages []string
	for _, s := range resp.Trace {
		stages = append(stages, s.Stage)
	}
	joined := strings.Join(stages, ",")
	if !strings.Contains(joined, "segment") || !strings.Contains(joined, "span-fuzzy") {
		t.Fatalf("trace stages = %v", stages)
	}
	// Without Explain, no trace.
	resp, err = e.Match(Request{Query: "indy 4"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != nil {
		t.Fatalf("trace without Explain: %+v", resp.Trace)
	}
}

func TestEngineValidation(t *testing.T) {
	e := testEngine()
	cases := []Request{
		{Query: ""},
		{Query: "x", TopK: -1},
		{Query: "x", TopK: MaxTopK + 1},
		{Query: "x", MinSim: -0.1},
		{Query: "x", MinSim: 1.5},
		{Query: "x", MaxSpanTokens: -2},
		{Query: "x", MaxSpanTokens: MaxMaxSpanTokens + 1},
		{Query: "x", Mode: "telepathy"},
	}
	for _, req := range cases {
		if _, err := e.Match(req); err == nil {
			t.Errorf("request %+v did not error", req)
		}
	}
	if _, err := e.Match(Request{Query: ""}); err != ErrEmptyQuery {
		t.Fatalf("empty query error = %v", err)
	}
}

func TestEngineDegenerateQuery(t *testing.T) {
	e := testEngine()
	resp, err := e.Match(Request{Query: "!!!"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Query != "" || resp.Matches != nil || resp.Remainder != "" {
		t.Fatalf("degenerate response = %+v", resp)
	}
	// Mode availability is checked before the degenerate early return:
	// fuzzy mode without an index errors even for "!!!".
	noIndex := NewEngine(engineDict(), nil, nil, 0)
	if _, err := noIndex.Match(Request{Query: "!!!", Mode: ModeFuzzy}); err == nil {
		t.Fatal("degenerate fuzzy-mode query bypassed the nil-index check")
	}
}

// TestEngineDroppedEntityConsumesTokens pins the legacy serving
// semantics: a trie span resolving outside the entity table is dropped
// from the matches, but its tokens are consumed — they are dictionary
// mentions, not remainder, and span-fuzzy must not re-resolve them.
func TestEngineDroppedEntityConsumesTokens(t *testing.T) {
	d := engineDict()
	d.Add("ghost entity", Entry{EntityID: 99, Score: 1, Source: "mined"})
	e := NewEngine(d, d.NewFuzzyIndex(0.55), engineCanonicals(), 0.55)
	resp, err := e.Match(Request{Query: "ghost entity indy 4"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 1 || resp.Matches[0].EntityID != 1 {
		t.Fatalf("matches = %+v", resp.Matches)
	}
	if resp.Remainder != "" {
		t.Fatalf("dropped match leaked its tokens into remainder %q", resp.Remainder)
	}
}

// TestEngineMatchPreparedAgreesWithMatch covers the entry point for
// callers that tokenized into the scratch themselves (the serving tier
// does, for its cache key).
func TestEngineMatchPreparedAgreesWithMatch(t *testing.T) {
	e := testEngine()
	req := Request{Query: "Indy 4 kingdom of the kristol skull", TopK: 3}
	want, err := e.Match(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	sc.Tokenize(req.Query)
	resp, err := e.MatchPrepared(req, sc)
	if err != nil {
		t.Fatal(err)
	}
	got := *resp
	want.Timing, got.Timing = Timing{}, Timing{}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("MatchPrepared diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestEngineTimingPopulated(t *testing.T) {
	e := testEngine()
	resp, err := e.Match(Request{Query: "kingdom of the kristol skull tickets"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Timing.TotalMicros <= 0 {
		t.Fatalf("timing = %+v", resp.Timing)
	}
	if resp.Timing.FuzzyMicros <= 0 {
		t.Fatalf("span path not timed: %+v", resp.Timing)
	}
}

func TestCandidatesDedupeByEntity(t *testing.T) {
	d := demoDict()
	// Entity 1 is mentioned twice ("indy 4" score 0.9, "indiana jones 4"
	// score 0.95): each mention is its own span, scored by its own entry.
	seg := d.Segment("indy 4 vs indiana jones 4")
	if len(seg.Matches) != 2 {
		t.Fatalf("matches = %+v", seg.Matches)
	}
	for i, want := range []Match{{EntityID: 1, Text: "indy 4", Score: 0.9}, {EntityID: 1, Text: "indiana jones 4", Score: 0.95}} {
		if m := seg.Matches[i]; m.EntityID != want.EntityID || m.Text != want.Text || m.Score != want.Score {
			t.Fatalf("match %d = %+v, want %+v", i, m, want)
		}
	}
	// Distinct entities all appear.
	if seg := d.Segment("indy 4 twilight"); len(seg.Matches) != 2 {
		t.Fatalf("distinct entities dropped: %+v", seg.Matches)
	}
}
