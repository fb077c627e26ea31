package match

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestFuzzyIndexLen(t *testing.T) {
	d := demoDict()
	fi := d.NewFuzzyIndex(0.6)
	if fi.Len() != 9 {
		t.Fatalf("indexed %d strings, want 9", fi.Len())
	}
}

func TestFuzzyLookupExactString(t *testing.T) {
	fi := demoDict().NewFuzzyIndex(0.6)
	hits := fi.Lookup("digital rebel xt", 0)
	if len(hits) == 0 || hits[0].Text != "digital rebel xt" || hits[0].Similarity != 1 {
		t.Fatalf("hits = %+v", hits)
	}
}

func TestFuzzyLookupGlobalTypos(t *testing.T) {
	fi := demoDict().NewFuzzyIndex(0.55)
	cases := map[string]string{
		"madagascar2":      "madagascar 2",     // missing space
		"digtal rebel xt":  "digital rebel xt", // dropped letter
		"indiana jones 4 ": "indiana jones 4",  // trailing junk
		"twilightt":        "twilight",         // doubled letter
	}
	for q, want := range cases {
		hits := fi.Lookup(q, 1)
		if len(hits) == 0 {
			t.Errorf("Lookup(%q) found nothing", q)
			continue
		}
		if hits[0].Text != want {
			t.Errorf("Lookup(%q) = %q, want %q", q, hits[0].Text, want)
		}
	}
}

func TestFuzzyLookupRejectsDistantStrings(t *testing.T) {
	fi := demoDict().NewFuzzyIndex(0.6)
	for _, q := range []string{"completely unrelated", "zzz qqq", "weather report"} {
		if hits := fi.Lookup(q, 0); len(hits) != 0 {
			t.Errorf("Lookup(%q) = %+v, want none", q, hits)
		}
	}
}

func TestFuzzyLookupLimit(t *testing.T) {
	fi := demoDict().NewFuzzyIndex(0.3)
	all := fi.Lookup("indiana jones", 0)
	one := fi.Lookup("indiana jones", 1)
	if len(one) > 1 {
		t.Fatalf("limit violated: %d hits", len(one))
	}
	if len(all) > 0 && len(one) == 0 {
		t.Fatal("limit dropped all hits")
	}
}

func TestFuzzyLookupEmptyQuery(t *testing.T) {
	fi := demoDict().NewFuzzyIndex(0.6)
	if hits := fi.Lookup("", 0); hits != nil {
		t.Fatalf("empty query produced %+v", hits)
	}
	if hits := NewDictionary().NewFuzzyIndex(0.6).Lookup("anything", 0); hits != nil {
		t.Fatalf("empty dictionary returned hits: %v", hits)
	}
}

// TestFuzzyLookupConcurrent is the index-level -race test: concurrent
// lookups share one index and its pooled fuzzyScratch accumulators, and
// every one must see the single-threaded answer.
func TestFuzzyLookupConcurrent(t *testing.T) {
	d := NewDictionary()
	for i := 0; i < 40; i++ {
		d.Add(fmt.Sprintf("madagascar episode %d", i), Entry{EntityID: i, Score: 1, Source: "canonical"})
		d.Add(fmt.Sprintf("kung fu panda %d", i), Entry{EntityID: 100 + i, Score: 1, Source: "canonical"})
	}
	d.Add("madagascar escape 2 africa", Entry{EntityID: 500, Score: 1, Source: "canonical"})
	fi := d.NewFuzzyIndex(0.55)
	want := fi.Lookup("madagascar2", 5)
	if len(want) == 0 {
		t.Fatal("fixture broken: no hits")
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if got := fi.Lookup("madagascar2", 5); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent lookup diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestFuzzyShortQueryFallsBackToExact(t *testing.T) {
	d := NewDictionary()
	d.Add("xy", Entry{EntityID: 5, Score: 1})
	fi := d.NewFuzzyIndex(0.6)
	hits := fi.Lookup("xy", 0)
	if len(hits) != 1 || hits[0].Entries[0].EntityID != 5 {
		t.Fatalf("short-query fallback = %+v", hits)
	}
	if hits := fi.Lookup("zz", 0); hits != nil {
		t.Fatalf("unknown short query produced %+v", hits)
	}
}

func TestForEachOrderedAndComplete(t *testing.T) {
	d := demoDict()
	var texts []string
	total := 0
	d.ForEach(func(text string, entries []Entry) {
		texts = append(texts, text)
		total += len(entries)
	})
	if total != d.Len() {
		t.Fatalf("ForEach visited %d entries, dictionary has %d", total, d.Len())
	}
	for i := 1; i < len(texts); i++ {
		if texts[i] <= texts[i-1] {
			t.Fatalf("ForEach not in order: %q after %q", texts[i], texts[i-1])
		}
	}
	if !reflect.DeepEqual(texts, d.Strings()) {
		t.Fatal("Strings() disagrees with ForEach")
	}
}
