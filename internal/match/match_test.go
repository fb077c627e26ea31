package match

import (
	"testing"
	"testing/quick"
)

// demoDict compiles a small dictionary mirroring the paper's examples.
func demoDict() *Dictionary {
	d := NewDictionary()
	d.Add("Indiana Jones and the Kingdom of the Crystal Skull", Entry{EntityID: 1, Score: 1.0, Source: "canonical"})
	d.Add("indy 4", Entry{EntityID: 1, Score: 0.9, Source: "mined"})
	d.Add("indiana jones 4", Entry{EntityID: 1, Score: 0.95, Source: "mined"})
	d.Add("Canon EOS 350D", Entry{EntityID: 2, Score: 1.0, Source: "canonical"})
	d.Add("digital rebel xt", Entry{EntityID: 2, Score: 0.85, Source: "mined"})
	d.Add("350d", Entry{EntityID: 2, Score: 0.8, Source: "mined"})
	d.Add("twilight", Entry{EntityID: 3, Score: 1.0, Source: "canonical"})
	d.Add("madagascar 2", Entry{EntityID: 4, Score: 0.9, Source: "mined"})
	d.Add("madagascar escape 2 africa", Entry{EntityID: 4, Score: 1.0, Source: "canonical"})
	return d
}

func TestAddAndLen(t *testing.T) {
	d := demoDict()
	if d.Len() != 9 {
		t.Fatalf("Len = %d", d.Len())
	}
	// Duplicate (string, entity) keeps the max score, no size change.
	d.Add("indy 4", Entry{EntityID: 1, Score: 0.5, Source: "dup"})
	if d.Len() != 9 {
		t.Fatalf("duplicate changed size to %d", d.Len())
	}
	if got := d.Lookup("indy 4")[0].Score; got != 0.9 {
		t.Fatalf("duplicate lowered score to %v", got)
	}
	d.Add("indy 4", Entry{EntityID: 1, Score: 0.99, Source: "better"})
	if got := d.Lookup("indy 4")[0].Score; got != 0.99 {
		t.Fatalf("higher score not kept: %v", got)
	}
}

func TestAddEmptyIgnored(t *testing.T) {
	d := NewDictionary()
	d.Add("", Entry{EntityID: 1})
	d.Add("!!!", Entry{EntityID: 1})
	if d.Len() != 0 {
		t.Fatal("empty strings were added")
	}
}

func TestLookupExact(t *testing.T) {
	d := demoDict()
	es := d.Lookup("digital rebel xt")
	if len(es) != 1 || es[0].EntityID != 2 {
		t.Fatalf("Lookup = %v", es)
	}
	if d.Lookup("digital rebel") != nil {
		t.Fatal("prefix should not resolve")
	}
	if d.Lookup("unknown") != nil {
		t.Fatal("unknown string resolved")
	}
	// Lookup normalizes its input.
	if d.Lookup("Digital REBEL XT!") == nil {
		t.Fatal("normalization missing in Lookup")
	}
}

func TestLookupAmbiguousOrdering(t *testing.T) {
	d := demoDict()
	d.Add("shared name", Entry{EntityID: 7, Score: 0.3})
	d.Add("shared name", Entry{EntityID: 8, Score: 0.7})
	es := d.Lookup("shared name")
	if len(es) != 2 || es[0].EntityID != 8 {
		t.Fatalf("ambiguous ordering = %v", es)
	}
}

func TestSegmentPaperExample(t *testing.T) {
	d := demoDict()
	seg := d.Segment("Indy 4 near San Fran")
	if len(seg.Matches) != 1 {
		t.Fatalf("matches = %v", seg.Matches)
	}
	m := seg.Matches[0]
	if m.EntityID != 1 || m.Text != "indy 4" {
		t.Fatalf("match = %+v", m)
	}
	if seg.Remainder != "near san fran" {
		t.Fatalf("remainder = %q", seg.Remainder)
	}
}

func TestSegmentPrefersLongestSpan(t *testing.T) {
	d := demoDict()
	// "madagascar escape 2 africa" must match the full canonical, not stop
	// at the shorter "madagascar 2"... the spans differ token-wise:
	// "madagascar 2" is not a prefix of "madagascar escape 2 africa", so
	// longest-from-position applies cleanly.
	seg := d.Segment("madagascar escape 2 africa dvd")
	if len(seg.Matches) != 1 || seg.Matches[0].Text != "madagascar escape 2 africa" {
		t.Fatalf("matches = %+v", seg.Matches)
	}
	if seg.Remainder != "dvd" {
		t.Fatalf("remainder = %q", seg.Remainder)
	}
}

func TestSegmentMultipleEntities(t *testing.T) {
	d := demoDict()
	seg := d.Segment("twilight vs indy 4")
	if len(seg.Matches) != 2 {
		t.Fatalf("matches = %+v", seg.Matches)
	}
	if seg.Matches[0].EntityID != 3 || seg.Matches[1].EntityID != 1 {
		t.Fatalf("matches = %+v", seg.Matches)
	}
	if seg.Remainder != "vs" {
		t.Fatalf("remainder = %q", seg.Remainder)
	}
}

func TestSegmentNoMatch(t *testing.T) {
	d := demoDict()
	seg := d.Segment("weather in seattle")
	if len(seg.Matches) != 0 {
		t.Fatalf("matches = %+v", seg.Matches)
	}
	if seg.Remainder != "weather in seattle" {
		t.Fatalf("remainder = %q", seg.Remainder)
	}
}

func TestMatchQuery(t *testing.T) {
	d := demoDict()
	// A mined alias mid-query, with remainder on both sides.
	seg := d.Segment("buy digital rebel xt online")
	if len(seg.Matches) != 1 || seg.Matches[0].EntityID != 2 || seg.Remainder != "buy online" {
		t.Fatalf("segmentation = %+v", seg)
	}
	if seg := d.Segment("nothing relevant"); len(seg.Matches) != 0 {
		t.Fatalf("irrelevant query matched: %+v", seg.Matches)
	}
}

func TestCandidatesOrdering(t *testing.T) {
	d := demoDict()
	// Spans come back in query order, each entity under its own score.
	seg := d.Segment("indy 4 twilight")
	if len(seg.Matches) != 2 || seg.Matches[0].EntityID != 1 || seg.Matches[1].EntityID != 3 || seg.Remainder != "" {
		t.Fatalf("segmentation = %+v", seg)
	}
}

func TestTypoCorrection(t *testing.T) {
	d := demoDict()
	seg := d.Segment("twilght showtimes")
	if len(seg.Matches) != 1 || seg.Matches[0].EntityID != 3 {
		t.Fatalf("typo not corrected: %+v", seg.Matches)
	}
	if !seg.Matches[0].Corrected {
		t.Fatal("Corrected flag not set")
	}
	// Exact tokens must not be flagged corrected.
	seg = d.Segment("twilight")
	if seg.Matches[0].Corrected {
		t.Fatal("exact match flagged as corrected")
	}
}

func TestShortTokensNotCorrected(t *testing.T) {
	d := demoDict()
	// "35d" is a 3-char token: must not fuzzy-match "350d".
	if seg := d.Segment("35d lens"); len(seg.Matches) != 0 {
		t.Fatalf("short token corrected: %+v", seg.Matches)
	}
}

func TestHasToken(t *testing.T) {
	d := demoDict()
	if !d.HasToken("rebel") || d.HasToken("zebra") {
		t.Fatal("HasToken wrong")
	}
}

func TestCorrectAmbiguityRefusal(t *testing.T) {
	d := NewDictionary()
	d.Add("mango smoothie", Entry{EntityID: 1, Score: 1})
	d.Add("manga smoothie", Entry{EntityID: 2, Score: 1})
	// "mangu" is distance 1 from both "mango" and "manga": must refuse.
	if got := d.correct("mangu"); got != "" {
		t.Fatalf("ambiguous correction returned %q", got)
	}
}

// Property: segmentation never loses or duplicates tokens — matched spans
// plus remainder partition the query.
func TestQuickSegmentationPartitions(t *testing.T) {
	d := demoDict()
	f := func(q string) bool {
		seg := d.Segment(q)
		covered := 0
		for _, m := range seg.Matches {
			if m.Start < 0 || m.End > len(seg.Tokens) || m.Start >= m.End {
				return false
			}
			covered += m.End - m.Start
		}
		remTokens := 0
		if seg.Remainder != "" {
			remTokens = len(splitSpaces(seg.Remainder))
		}
		return covered+remTokens == len(seg.Tokens)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func splitSpaces(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return out
}

// Property: matches never overlap.
func TestQuickMatchesDisjoint(t *testing.T) {
	d := demoDict()
	f := func(q string) bool {
		seg := d.Segment(q)
		for i := 1; i < len(seg.Matches); i++ {
			if seg.Matches[i].Start < seg.Matches[i-1].End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSegment(b *testing.B) {
	d := demoDict()
	for i := 0; i < b.N; i++ {
		_ = d.Segment("showtimes for indy 4 near san francisco bay area")
	}
}
