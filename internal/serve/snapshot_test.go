package serve

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"websyn/internal/match"
	"websyn/internal/rewrite"
)

// testSnapshot builds a small but structured snapshot: several entities,
// mined synonyms, multi-entry strings.
func testSnapshot() *Snapshot {
	d := match.NewDictionary()
	d.Add("Indiana Jones and the Kingdom of the Crystal Skull",
		match.Entry{EntityID: 0, Score: 1, Source: "canonical"})
	d.Add("indy 4", match.Entry{EntityID: 0, Score: 0.8125, Source: "mined"})
	d.Add("indiana jones 4", match.Entry{EntityID: 0, Score: 0.75, Source: "mined"})
	d.Add("kingdom of the crystal skull", match.Entry{EntityID: 0, Score: 0.7, Source: "mined"})
	d.Add("Madagascar: Escape 2 Africa", match.Entry{EntityID: 1, Score: 1, Source: "canonical"})
	d.Add("madagascar 2", match.Entry{EntityID: 1, Score: 0.9, Source: "mined"})
	// An ambiguous string resolving to two entities.
	d.Add("madagascar", match.Entry{EntityID: 1, Score: 0.5, Source: "mined"})
	d.Add("madagascar", match.Entry{EntityID: 2, Score: 0.4, Source: "mined"})
	d.Add("Madagascar", match.Entry{EntityID: 2, Score: 1, Source: "canonical"})
	return &Snapshot{
		Dataset: "Movies",
		MinSim:  0.55,
		Fuzzy:   d.NewFuzzyIndex(0.55).Packed(),
		Canonicals: []string{
			"Indiana Jones and the Kingdom of the Crystal Skull",
			"Madagascar: Escape 2 Africa",
			"Madagascar",
		},
		Synonyms: map[string][]string{
			"indiana jones and the kingdom of the crystal skull": {"indy 4", "indiana jones 4"},
			"madagascar escape 2 africa":                         {"madagascar 2"},
		},
		Dict: d,
	}
}

// testVocabulary is a small but structurally complete attribute
// vocabulary: both column kinds, every lexicon family populated.
func testVocabulary() *rewrite.Vocabulary {
	return &rewrite.Vocabulary{
		Domain: "movies",
		Numeric: []rewrite.NumericColumn{{
			Name: "year", Min: 2008, Max: 2008,
			Values:     []float64{2008},
			UnitTokens: []string{"year"},
			Comparators: []rewrite.Comparator{
				{Token: "before", Op: "lt"}, {Token: "since", Op: "gte"},
			},
			Bands: []rewrite.Band{{Token: "recent", Op: "gte", Value: 2008}},
		}},
		Categorical: []rewrite.CategoricalColumn{
			{Name: "genre", Values: []string{"action", "adventure", "comedy"}},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := testSnapshot()
	var buf bytes.Buffer
	n, err := snap.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Dataset != snap.Dataset {
		t.Errorf("Dataset %q, want %q", got.Dataset, snap.Dataset)
	}
	if got.MinSim != snap.MinSim {
		t.Errorf("MinSim %v, want %v", got.MinSim, snap.MinSim)
	}
	if !reflect.DeepEqual(got.Canonicals, snap.Canonicals) {
		t.Errorf("Canonicals %v, want %v", got.Canonicals, snap.Canonicals)
	}
	if !reflect.DeepEqual(got.Synonyms, snap.Synonyms) {
		t.Errorf("Synonyms %v, want %v", got.Synonyms, snap.Synonyms)
	}
	if got.Dict.Len() != snap.Dict.Len() {
		t.Fatalf("Dict.Len %d, want %d", got.Dict.Len(), snap.Dict.Len())
	}
	if !reflect.DeepEqual(got.Fuzzy, snap.Fuzzy) {
		t.Errorf("packed fuzzy index diverged after round-trip:\n got %+v\nwant %+v", got.Fuzzy, snap.Fuzzy)
	}

	// The loaded dictionary must behave identically: every string, every
	// entry, every segmentation.
	wantDump := dumpDict(snap.Dict)
	gotDump := dumpDict(got.Dict)
	if !reflect.DeepEqual(gotDump, wantDump) {
		t.Errorf("dictionary content diverged:\n got %v\nwant %v", gotDump, wantDump)
	}
	for _, q := range []string{
		"showtimes for indy 4 near san francisco",
		"madagascar 2 trailer",
		"watch madagascar online",
		"indianna jones 4",
	} {
		want := snap.Dict.Segment(q)
		got := got.Dict.Segment(q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Segment(%q) diverged after round-trip:\n got %+v\nwant %+v", q, got, want)
		}
	}
}

// dumpDict flattens a dictionary into a comparable structure.
func dumpDict(d *match.Dictionary) map[string][]match.Entry {
	out := make(map[string][]match.Entry)
	d.ForEach(func(text string, entries []match.Entry) {
		out[text] = append([]match.Entry(nil), entries...)
	})
	return out
}

// TestSnapshotWithoutFuzzySection pins the presence byte: a snapshot
// written without a packed index reads back with Fuzzy nil, and a
// server over it rebuilds the index from the dictionary and serves the
// same fuzzy hits as one over the embedded index.
func TestSnapshotWithoutFuzzySection(t *testing.T) {
	snap := testSnapshot()
	bare := testSnapshot()
	bare.Fuzzy = nil
	var buf bytes.Buffer
	if _, err := bare.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fuzzy != nil {
		t.Fatal("snapshot without a fuzzy section produced one")
	}
	rebuilt := NewServer(got, Config{CacheSize: -1})
	embedded := NewServer(snap, Config{CacheSize: -1})
	for _, q := range []string{"madagascar2", "indianna jones 4", "indy4"} {
		a := rebuilt.gen.Load().fuzzy.Lookup(q, 5)
		b := embedded.gen.Load().fuzzy.Lookup(q, 5)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("fuzzy Lookup(%q) diverged between rebuilt and embedded index:\n rebuilt %+v\n embedded %+v", q, a, b)
		}
	}
}

// TestSnapshotVocabularyRoundTrip pins the vocabulary section: an attached
// vocabulary survives the write/read cycle intact, and a snapshot
// without one reads back with Vocab nil (presence byte 0).
func TestSnapshotVocabularyRoundTrip(t *testing.T) {
	snap := testSnapshot()
	snap.Vocab = testVocabulary()
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Vocab, snap.Vocab) {
		t.Errorf("vocabulary diverged after round-trip:\n got %+v\nwant %+v", got.Vocab, snap.Vocab)
	}

	bare := testSnapshot()
	buf.Reset()
	if _, err := bare.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err = ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Vocab != nil {
		t.Errorf("nil vocabulary came back non-nil: %+v", got.Vocab)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	snap := testSnapshot()
	path := filepath.Join(t.TempDir(), "dict.snap")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dict.Len() != snap.Dict.Len() {
		t.Fatalf("Dict.Len %d, want %d", got.Dict.Len(), snap.Dict.Len())
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	snap := testSnapshot()
	var a, b bytes.Buffer
	if _, err := snap.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two serializations of the same snapshot differ")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	snap := testSnapshot()
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatal("accepted bad magic")
		}
	})
	t.Run("unknown version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = SnapshotVersion + 1
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatal("accepted unknown version")
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)/2] ^= 0xff
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatal("accepted corrupted payload")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := ReadSnapshot(bytes.NewReader(good[:len(good)-5])); err == nil {
			t.Fatal("accepted truncated snapshot")
		}
	})
}
