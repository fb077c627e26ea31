package websyn

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"websyn/internal/textnorm"
)

// Differential acceptance test for the packed fuzzy index: on every
// corpus the packed posting-list implementation must return hits
// byte-identical (text, similarity, order, entries) to the reference
// map-based implementation it replaced — across the built index, its
// from-packed reload and a realistic mix of misspelled queries.

// refFuzzyIndex is the pre-packed implementation, kept verbatim as the
// oracle: trigram -> []int posting maps, a per-query candidate map, and
// full NGramSimilarity verification of every candidate.
type refFuzzyIndex struct {
	dict    *MatchDictionary
	strings []string
	grams   map[string][]int
	minSim  float64
}

func newRefFuzzyIndex(d *MatchDictionary, minSim float64) *refFuzzyIndex {
	ref := &refFuzzyIndex{
		dict:    d,
		strings: d.Strings(),
		grams:   make(map[string][]int),
		minSim:  minSim,
	}
	for i, s := range ref.strings {
		seen := map[string]bool{}
		for _, g := range textnorm.CharNGrams(s, 3) {
			if !seen[g] {
				seen[g] = true
				ref.grams[g] = append(ref.grams[g], i)
			}
		}
	}
	return ref
}

func (ref *refFuzzyIndex) Lookup(query string, limit int) []FuzzyHit {
	norm := textnorm.Normalize(query)
	if norm == "" {
		return nil
	}
	grams := textnorm.CharNGrams(norm, 3)
	if len(grams) == 0 {
		if es := ref.dict.Lookup(norm); es != nil {
			return []FuzzyHit{{Text: norm, Similarity: 1, Entries: es}}
		}
		return nil
	}
	seen := make(map[string]bool, len(grams))
	distinct := 0
	counts := make(map[int]int)
	for _, g := range grams {
		if seen[g] {
			continue
		}
		seen[g] = true
		distinct++
		for _, idx := range ref.grams[g] {
			counts[idx]++
		}
	}
	minShared := int(ref.minSim * float64(distinct) / 2)
	var hits []FuzzyHit
	for idx, shared := range counts {
		if shared < minShared {
			continue
		}
		s := ref.strings[idx]
		sim := textnorm.NGramSimilarity(norm, s, 3)
		if sim < ref.minSim {
			continue
		}
		hits = append(hits, FuzzyHit{Text: s, Similarity: sim, Entries: ref.dict.Lookup(s)})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Similarity != hits[j].Similarity {
			return hits[i].Similarity > hits[j].Similarity
		}
		return hits[i].Text < hits[j].Text
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// typoVariants generates the misspelled query mix for one dictionary
// string: spacing removed, a character dropped, a character doubled, two
// characters swapped, and a trailing intent word.
func typoVariants(s string) []string {
	norm := textnorm.Normalize(s)
	out := []string{norm, strings.ReplaceAll(norm, " ", "")}
	if n := len(norm); n > 4 {
		mid := n / 2
		out = append(out,
			norm[:mid]+norm[mid+1:],                                   // dropped character
			norm[:mid]+norm[mid:mid+1]+norm[mid:],                     // doubled character
			norm[:mid-1]+norm[mid:mid+1]+norm[mid-1:mid]+norm[mid+1:], // swapped pair
		)
	}
	out = append(out, norm+" dvd")
	return out
}

var softwareOnce sync.Once
var softwareSim *Simulation
var softwareSimErr error

func software(t testing.TB) *Simulation {
	t.Helper()
	softwareOnce.Do(func() {
		softwareSim, softwareSimErr = NewSimulation(Options{Dataset: SoftwareProducts})
	})
	if softwareSimErr != nil {
		t.Fatal(softwareSimErr)
	}
	return softwareSim
}

func TestPackedFuzzyMatchesReferenceOnAllCorpora(t *testing.T) {
	sims := map[string]func(testing.TB) *Simulation{
		"movies":   func(tb testing.TB) *Simulation { return movies(tb) },
		"cameras":  func(tb testing.TB) *Simulation { return cameras(tb) },
		"software": func(tb testing.TB) *Simulation { return software(tb) },
	}
	for name, getSim := range sims {
		t.Run(name, func(t *testing.T) {
			sim := getSim(t)
			results, err := sim.MineAll(DefaultMinerConfig())
			if err != nil {
				t.Fatal(err)
			}
			dict := sim.BuildDictionary(results)
			ref := newRefFuzzyIndex(dict, DefaultFuzzyMinSim)
			flat := dict.NewFuzzyIndex(DefaultFuzzyMinSim)
			packed, err := dict.NewFuzzyIndexFromPacked(flat.Packed(), DefaultFuzzyMinSim)
			if err != nil {
				t.Fatal(err)
			}

			queries := []string{"", "zz", "a", "completely unrelated text"}
			for _, e := range sim.Catalog.All() {
				queries = append(queries, typoVariants(e.Canonical)...)
			}
			mismatches := 0
			for _, q := range queries {
				for _, limit := range []int{0, 5} {
					want := ref.Lookup(q, limit)
					if got := flat.Lookup(q, limit); !reflect.DeepEqual(got, want) {
						t.Errorf("flat Lookup(%q, %d) diverged from reference:\n got %+v\nwant %+v", q, limit, got, want)
						mismatches++
					}
					if got := packed.Lookup(q, limit); !reflect.DeepEqual(got, want) {
						t.Errorf("from-packed Lookup(%q, %d) diverged from reference:\n got %+v\nwant %+v", q, limit, got, want)
						mismatches++
					}
					if mismatches > 5 {
						t.Fatal("too many divergences, stopping")
					}
				}
			}
		})
	}
}
