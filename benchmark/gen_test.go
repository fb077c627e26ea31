package main

import (
	"bytes"
	"strings"
	"testing"
)

// smallScale builds a small scale tier and its traffic for seed.
func smallScale(t *testing.T, seed uint64) (*corpus, *answerSet, []request) {
	t.Helper()
	w := workloadByName("fleet_cached")
	c := buildScale(seed, 1500)
	be, err := openBackend(w, c)
	if err != nil {
		t.Fatal(err)
	}
	qs := genQueries(w, c, seed, quickSizes)
	return c, expectedAnswers(be, qs), encodeRequests(w, qs)
}

func TestSameSeedSameInputs(t *testing.T) {
	c1, a1, r1 := smallScale(t, 7)
	c2, a2, r2 := smallScale(t, 7)
	if c1.SHA != c2.SHA {
		t.Errorf("corpus_sha differs for one seed: %s vs %s", c1.SHA, c2.SHA)
	}
	if a1.sha() != a2.sha() {
		t.Errorf("answers_sha differs for one seed")
	}
	if len(r1) != len(r2) {
		t.Fatalf("%d vs %d requests for one seed", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Path != r2[i].Path || !bytes.Equal(r1[i].Body, r2[i].Body) {
			t.Fatalf("request %d differs for one seed:\n%s\n%s", i, r1[i].Body, r2[i].Body)
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	c1, a1, r1 := smallScale(t, 7)
	c2, a2, r2 := smallScale(t, 8)
	if c1.SHA == c2.SHA {
		t.Error("corpus_sha is the same for two seeds")
	}
	if a1.sha() == a2.sha() {
		t.Error("answers_sha is the same for two seeds")
	}
	same := 0
	for i := range r1 {
		if i < len(r2) && bytes.Equal(r1[i].Body, r2[i].Body) {
			same++
		}
	}
	if same > len(r1)/10 {
		t.Errorf("%d of %d request bodies are identical across seeds", same, len(r1))
	}
}

// Traffic order is part of the inputs: the same seed must send the same
// requests in the same order, from every client.
func TestPickersAreSeeded(t *testing.T) {
	_, a, reqs := smallScale(t, 7)
	for _, w := range []*workload{workloadByName("scale_uncached"), workloadByName("fleet_cached")} {
		p := &prepared{W: w, Answers: a, Requests: reqs}
		draw := func(seed uint64) []int {
			var out []int
			for c := 0; c < clients; c++ {
				pk := pickers(p, seed)(c)
				for i := 0; i < 200; i++ {
					ri, _ := pk.next()
					out = append(out, ri)
				}
			}
			return out
		}
		a1, a2, b := draw(3), draw(3), draw(4)
		if !equalInts(a1, a2) {
			t.Errorf("%s: one seed, two request orders", w.Name)
		}
		if equalInts(a1, b) {
			t.Errorf("%s: two seeds, one request order", w.Name)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Every scale source carries its entity's own model token, and no other
// entity's strings contain it: exact queries are unambiguous by
// construction, not by asking the program.
func TestScaleSourcesBelongToOneEntity(t *testing.T) {
	ents := genScale(1, 3000)
	owner := map[string]int{}
	for id, e := range ents {
		for _, s := range e.Strings {
			if prev, ok := owner[s]; ok && prev != id {
				owner[s] = -1
			} else if !ok {
				owner[s] = id
			}
		}
	}
	for _, s := range scaleSources(ents, 0, len(ents)) {
		if owner[s.Text] != s.Entity {
			t.Fatalf("source %q of entity %d is shared (owner %d)", s.Text, s.Entity, owner[s.Text])
		}
	}
}

func TestIntentsCannotBeDictionaryTokens(t *testing.T) {
	for _, w := range genVocabulary(newRNG(1), 5000) {
		if nearIntent(w) {
			t.Fatalf("vocabulary word %q is within one edit of an intent", w)
		}
	}
	for _, c := range []struct {
		a, b string
		want bool
	}{
		{"near2me", "nearme", true}, {"near2me", "near2me", true}, {"near2me", "naer2me", true},
		{"near2me", "near3me", true}, {"near2me", "near22me", true}, {"near2me", "nearby", false}, {"ab", "abcd", false},
	} {
		if got := withinOneEdit(c.a, c.b); got != c.want {
			t.Errorf("withinOneEdit(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestZipfIsSkewed(t *testing.T) {
	z, r := newZipf(1000, 1.0), newRNG(1)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.sample(r)]++
	}
	if counts[0] < 5*counts[9] || counts[9] < 5*counts[99] {
		t.Errorf("rank counts not Zipf-like: r1=%d r10=%d r100=%d", counts[0], counts[9], counts[99])
	}
}

// Batches carry exactly batchSize items and never mix endpoints or
// routing modes; single requests carry one.
func TestBatchesAreHomogeneous(t *testing.T) {
	qs := []query{}
	for i := 0; i < 200; i++ {
		q := query{Text: "q" + strings.Repeat("x", i%7), Class: classes[i%len(classes)], Domain: "movies", SrcDomain: "movies"}
		if i%federatedEvery == 0 {
			q.Domain = federated
		}
		qs = append(qs, q)
	}
	seen := map[int]bool{}
	for _, r := range encodeRequests(&workload{Batch: batchSize}, qs) {
		if len(r.Items) != batchSize {
			t.Fatalf("batch of %d items", len(r.Items))
		}
		first := qs[r.Items[0]]
		for _, qi := range r.Items {
			seen[qi] = true
			if endpoint(qs[qi]) != r.Path || (qs[qi].Domain == federated) != (first.Domain == federated) {
				t.Fatalf("batch to %s mixes %+v with %+v", r.Path, first, qs[qi])
			}
		}
	}
	if len(seen) != len(qs) {
		t.Errorf("batches cover %d of %d queries", len(seen), len(qs))
	}
	for _, r := range encodeRequests(&workload{Batch: 1}, qs) {
		if len(r.Items) != 1 {
			t.Fatalf("single request with %d items", len(r.Items))
		}
	}
}

// The ladder replays the head of the traffic, but no class may be left
// with too few queries for a median.
func TestLadderQueriesCoverEveryClass(t *testing.T) {
	var qs []query
	for i := 0; i < 1000; i++ {
		q := query{Class: classExact}
		if i >= 900 && i%10 == 0 {
			q.Class = classNoise // rare, and absent from the head
		}
		qs = append(qs, q)
	}
	picked := ladderQueries(qs, 100)
	noise := 0
	for _, i := range picked {
		if qs[i].Class == classNoise {
			noise++
		}
	}
	if noise != 8 || len(picked) != 108 {
		t.Errorf("picked %d queries, %d of them noise; want 108 and 8", len(picked), noise)
	}
	if got := ladderQueries(qs[:5], 100); len(got) != 5 {
		t.Errorf("picked %d of 5 queries", len(got))
	}
}
