package textnorm

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalizeBasic(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Indiana Jones and the Kingdom of the Crystal Skull", "indiana jones and the kingdom of the crystal skull"},
		{"Madagascar: Escape 2 Africa", "madagascar escape 2 africa"},
		{"Mamma Mia!", "mamma mia"},
		{"Canon EOS-350D", "canon eos 350d"},
		{"  WALL-E ", "wall e"},
		{"Dr. Seuss' Horton Hears a Who!", "dr seuss horton hears a who"},
		{"", ""},
		{"!!!", ""},
		{"a  b\tc", "a b c"},
		{"MiXeD CaSe", "mixed case"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		n := Normalize(s)
		return Normalize(n) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"The Dark Knight", []string{"the", "dark", "knight"}},
		{"EOS-350D", []string{"eos", "350d"}},
		{"x", []string{"x"}},
		{"", nil},
		{"...", nil},
		{"a1b2", []string{"a1b2"}},
		{"Quantum of Solace (2008)", []string{"quantum", "of", "solace", "2008"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeNeverEmptyTokens(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
			if tok != strings.ToLower(tok) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignificantTokens(t *testing.T) {
	got := SignificantTokens("The Chronicles of Narnia: Prince Caspian")
	want := []string{"chronicles", "narnia", "prince", "caspian"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SignificantTokens = %v, want %v", got, want)
	}
	// All-stopword strings fall back to the full token list.
	got = SignificantTokens("The And Of")
	want = []string{"the", "and", "of"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("all-stopword fallback = %v, want %v", got, want)
	}
}

func TestIsStopword(t *testing.T) {
	// SignificantTokens is the stopword set's one reader: stopwords go,
	// content words stay.
	got := SignificantTokens("a dark knight of the 350d")
	want := []string{"dark", "knight", "350d"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stopwords kept or content words dropped: %v, want %v", got, want)
	}
}

func TestAcronym(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Lord of the Rings", "lotr"},
		{"Kung Fu Panda", "kfp"},
		{"The Dark Knight", "tdk"},
		{"Madagascar", "m"},
		{"Kung Fu Panda 2", "kfp2"},
		{"", ""},
	}
	for _, c := range cases {
		if got := Acronym(c.in); got != c.want {
			t.Errorf("Acronym(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCharNGrams(t *testing.T) {
	got := CharNGrams("ab c", 2)
	want := []string{"ab", "b ", " c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CharNGrams = %v, want %v", got, want)
	}
	if CharNGrams("a", 2) != nil {
		t.Error("too-short string should yield nil")
	}
	if CharNGrams("abc", 0) != nil {
		t.Error("n=0 should yield nil")
	}
}

func TestNGramSimilarity(t *testing.T) {
	if got := NGramSimilarity("twilight", "twilight", 2); got != 1 {
		t.Errorf("identical: %v", got)
	}
	if got := NGramSimilarity("twilight", "twilght", 2); got < 0.6 {
		t.Errorf("one-typo similarity too low: %v", got)
	}
	if got := NGramSimilarity("abcdef", "uvwxyz", 2); got != 0 {
		t.Errorf("disjoint: %v", got)
	}
	if got := NGramSimilarity("", "", 2); got != 1 {
		t.Errorf("both empty: %v", got)
	}
	if got := NGramSimilarity("abcd", "", 2); got != 0 {
		t.Errorf("one empty: %v", got)
	}
}

func TestNGramSimilaritySymmetric(t *testing.T) {
	f := func(a, b string) bool {
		return NGramSimilarity(a, b, 3) == NGramSimilarity(b, a, 3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestToRoman(t *testing.T) {
	cases := map[int]string{
		1: "i", 2: "ii", 3: "iii", 4: "iv", 5: "v", 6: "vi",
		7: "vii", 8: "viii", 9: "ix", 10: "x", 11: "xi", 14: "xiv",
		19: "xix", 40: "xl", 49: "xlix",
	}
	for n, want := range cases {
		if got := ToRoman(n); got != want {
			t.Errorf("ToRoman(%d) = %q, want %q", n, got, want)
		}
	}
	if ToRoman(0) != "" || ToRoman(50) != "" || ToRoman(-1) != "" {
		t.Error("out-of-range ToRoman should return empty")
	}
}

func TestFromRomanRoundTrip(t *testing.T) {
	for n := 1; n <= 49; n++ {
		got, ok := FromRoman(ToRoman(n))
		if !ok || got != n {
			t.Errorf("round trip failed for %d: got %d ok=%v", n, got, ok)
		}
	}
}

func TestFromRomanRejectsMalformed(t *testing.T) {
	for _, s := range []string{"", "iiii", "vx", "abc", "IV", "xxxxx", "il"} {
		if _, ok := FromRoman(s); ok {
			t.Errorf("FromRoman(%q) accepted malformed input", s)
		}
	}
}

func TestWordRoundTrip(t *testing.T) {
	for n := 1; n <= 12; n++ {
		w := ToWord(n)
		if w == "" {
			t.Fatalf("ToWord(%d) empty", n)
		}
		got, ok := FromWord(w)
		if !ok || got != n {
			t.Errorf("word round trip failed for %d", n)
		}
	}
	if ToWord(0) != "" || ToWord(13) != "" {
		t.Error("out-of-range ToWord should be empty")
	}
	if _, ok := FromWord("zillion"); ok {
		t.Error("FromWord accepted garbage")
	}
}

func TestNumeralValue(t *testing.T) {
	// The roman and word readers each take only their own form.
	for s, want := range map[string]int{"iv": 4, "ii": 2} {
		if got, ok := FromRoman(s); !ok || got != want {
			t.Errorf("FromRoman(%q) = %d,%v want %d", s, got, ok, want)
		}
	}
	for s, want := range map[string]int{"four": 4, "two": 2} {
		if got, ok := FromWord(s); !ok || got != want {
			t.Errorf("FromWord(%q) = %d,%v want %d", s, got, ok, want)
		}
	}
	for _, s := range []string{"", "4", "iv", "abc"} {
		if _, ok := FromWord(s); ok {
			t.Errorf("FromWord accepted %q", s)
		}
	}
}

func TestNumeralForms(t *testing.T) {
	forms := NumeralForms(4)
	want := []string{"4", "iv", "four"}
	if !reflect.DeepEqual(forms, want) {
		t.Errorf("NumeralForms(4) = %v, want %v", forms, want)
	}
	forms = NumeralForms(20)
	// 20 has digits and roman (xx) but no word form.
	if !reflect.DeepEqual(forms, []string{"20", "xx"}) {
		t.Errorf("NumeralForms(20) = %v", forms)
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"twilight", "twilght", 1},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		return EditDistance(a, b) == EditDistance(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEditDistanceTriangle(t *testing.T) {
	f := func(a, b, c string) bool {
		ab := EditDistance(a, b)
		bc := EditDistance(b, c)
		ac := EditDistance(a, c)
		return ac <= ab+bc
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEditDistanceAtMostAgrees(t *testing.T) {
	pairs := [][2]string{
		{"kitten", "sitting"}, {"abc", "abd"}, {"", "xyz"},
		{"canon eos 350d", "canon eos 300d"}, {"a", "a"},
		{"indiana jones", "indy"},
	}
	for _, p := range pairs {
		d := EditDistance(p[0], p[1])
		for k := 0; k <= d+2; k++ {
			want := d <= k
			if got := EditDistanceAtMost(p[0], p[1], k); got != want {
				t.Errorf("EditDistanceAtMost(%q,%q,%d) = %v, want %v (d=%d)",
					p[0], p[1], k, got, want, d)
			}
		}
	}
}

func TestEditDistanceAtMostQuick(t *testing.T) {
	f := func(a, b string, kRaw uint8) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		k := int(kRaw % 6)
		return EditDistanceAtMost(a, b, k) == (EditDistance(a, b) <= k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEditDistanceAtMostNegativeK(t *testing.T) {
	if EditDistanceAtMost("a", "a", -1) {
		t.Error("negative k must return false")
	}
}

func BenchmarkNormalize(b *testing.B) {
	s := "Indiana Jones and the Kingdom of the Crystal Skull (2008)"
	for i := 0; i < b.N; i++ {
		_ = Normalize(s)
	}
}

func BenchmarkEditDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = EditDistance("indiana jones and the kingdom", "indiana jones kingdom crystal")
	}
}

func BenchmarkEditDistanceAtMost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = EditDistanceAtMost("indiana jones and the kingdom", "indiana jones kingdom crystal", 2)
	}
}
