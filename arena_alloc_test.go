package websyn

// The allocation-budget and differential suites pinning the zero-alloc
// match hot path (internal/match's scratch arenas, served through
// MatchServer.DoView) and the mmap snapshot boot. These are the
// acceptance gates of the arena work: pooled, reused arenas answer
// byte-identically to a fresh one on every mined corpus, a hard
// allocs-per-op ceiling per query class, and a bounded cold-boot time
// for mapped snapshots.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"websyn/internal/match"
	"websyn/internal/rng"
)

// allSnapshots mines all three corpora into serving snapshots (cached
// simulations keep this cheap after the first test needs them).
func allSnapshots(t testing.TB) map[string]*Snapshot {
	t.Helper()
	out := make(map[string]*Snapshot, 3)
	for name, sim := range map[string]*Simulation{
		"movies":   movies(t),
		"cameras":  cameras(t),
		"software": software(t),
	} {
		results, err := sim.MineAll(DefaultMinerConfig())
		if err != nil {
			t.Fatal(err)
		}
		out[name] = sim.BuildSnapshot(results, 0)
	}
	return out
}

// diffQuerySet builds a query mix exercising every engine path against
// one snapshot: exact canonicals, suffixed queries, typos, junk.
func diffQuerySet(snap *Snapshot) []string {
	qs := []string{
		"", "   ", "the", "best pizza in town",
		"twilght reviews", "quantem of solace tickets",
		"kingdom of the kristol skull showtimes",
	}
	for i, c := range snap.Canonicals {
		switch i % 4 {
		case 0:
			qs = append(qs, c)
		case 1:
			qs = append(qs, c+" showtimes")
		case 2:
			qs = append(qs, "watch "+c+" online")
		case 3:
			if len(c) > 6 {
				// Drop a rune mid-string: a typo the corrector or the
				// span-fuzzy path must absorb.
				qs = append(qs, c[:len(c)/2]+c[len(c)/2+1:])
			}
		}
		if i >= 60 {
			break
		}
	}
	return qs
}

// TestArenaDifferentialAllSnapshots is the arena-reuse differential
// gate over every mined corpus: for each snapshot, each mode and each
// query, the serving path (DoView over pooled, reused scratch) must
// produce a response JSON-byte-identical to Engine.Match's (the same
// pipeline over a fresh scratch), Timing aside — stale buffers or views
// stranded by reuse would show as diffs.
func TestArenaDifferentialAllSnapshots(t *testing.T) {
	for name, snap := range allSnapshots(t) {
		t.Run(name, func(t *testing.T) {
			s := NewMatchServer(snap, ServeConfig{CacheSize: -1})
			eng := s.Engine()
			queries := diffQuerySet(snap)
			modes := []match.Mode{"", match.ModeSegment, match.ModeSpan, match.ModeFuzzy}
			checked := 0
			for _, mode := range modes {
				for _, explain := range []bool{false, true} {
					for _, q := range queries {
						req := match.Request{Query: q, Mode: mode, TopK: 3, Explain: explain}
						want, errWant := eng.Match(req)
						var got match.Response
						errGot := s.DoView(req, func(res *match.Response, _ bool) {
							got = match.CloneResponse(res)
						})
						if (errWant == nil) != (errGot == nil) {
							t.Fatalf("%s %q explain=%v: error divergence: reference %v, arena %v",
								mode, q, explain, errWant, errGot)
						}
						if errWant != nil {
							continue
						}
						want.Timing, got.Timing = match.Timing{}, match.Timing{}
						wj, _ := json.Marshal(want)
						gj, _ := json.Marshal(got)
						if string(wj) != string(gj) {
							t.Fatalf("%s %q explain=%v: arena diverged from reference:\n got %s\nwant %s",
								mode, q, explain, gj, wj)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s %q explain=%v: deep divergence beyond JSON", mode, q, explain)
						}
						checked++
					}
				}
			}
			t.Logf("%s: %d (mode, explain, query) combinations byte-identical", name, checked)
		})
	}
}

// TestEngineAllocBudget is the allocation gate on the steady-state match
// path: with caching disabled, an exact trie query must perform zero
// heap allocations end to end, and the typo and span-fuzzy classes must
// stay within small fixed budgets.
// Budgets are ceilings, not targets — tighten them when the path
// improves, never loosen without understanding what regressed.
func TestEngineAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation disables the inlining the zero-alloc path relies on")
	}
	snap := movieSnapshot(t)
	s := NewMatchServer(snap, ServeConfig{CacheSize: -1})
	classes := []struct {
		name    string
		budget  float64
		queries []string
	}{
		// Exact trie hits: the dominant production class. Zero.
		{"exact", 0, []string{
			"the dark knight tickets",
			"quantum of solace showtimes",
			"madagascar 2 dvd",
		}},
		// Per-token typo correction (edit distance 1 against the vocab).
		{"typo", 2, []string{
			"twilght reviews",
			"quantem of solace",
			"madagscar 2 trailer",
		}},
		// Span-level fuzzy resolution through the trigram index. The
		// pre-arena engine spent ~530 allocs/op here; the arena must stay
		// at or below 10% of that (ISSUE 6 acceptance), and in practice
		// at a small constant.
		{"span-fuzzy", 16, []string{
			"kingdom of the kristol skull showtimes",
			"quntum of solacee",
			"bangkok dangeruos cage movie",
		}},
	}
	for _, c := range classes {
		t.Run(c.name, func(t *testing.T) {
			reqs := make([]match.Request, len(c.queries))
			for i, q := range c.queries {
				reqs[i] = match.Request{Query: q}
			}
			// Warm the scratch pool and every lazily built structure.
			for _, req := range reqs {
				if err := s.DoView(req, func(*match.Response, bool) {}); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			got := testing.AllocsPerRun(300, func() {
				req := reqs[i%len(reqs)]
				i++
				if err := s.DoView(req, func(*match.Response, bool) {}); err != nil {
					t.Fatal(err)
				}
			})
			if got > c.budget {
				t.Errorf("%s: %.1f allocs/op, budget %.0f", c.name, got, c.budget)
			}
			t.Logf("%s: %.1f allocs/op (budget %.0f)", c.name, got, c.budget)
		})
	}
}

// TestMmapColdBoot bounds the decode cost OpenSnapshotMapped was built
// to eliminate: opening a current-version snapshot of each mined corpus
// must finish well under the reload SLO — the fuzzy slabs (the bulk of
// the file) are aliased, not decoded. 50ms is the ISSUE 6 acceptance
// ceiling; the observed cost is dominated by the dictionary section.
func TestMmapColdBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	dir := t.TempDir()
	for name, snap := range allSnapshots(t) {
		path := filepath.Join(dir, name+".snap")
		if err := snap.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		// Best of three: the gate is about decode work, not a cold disk
		// or a scheduler hiccup.
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			got, err := OpenSnapshotMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
			if got.Fuzzy == nil || !got.Fuzzy.Mapped() {
				t.Fatalf("%s: fuzzy index not mapped", name)
			}
		}
		t.Logf("%s: %s mapped open in %v (%d bytes)", name, filepath.Base(path), best, st.Size())
		if best > 50*time.Millisecond {
			t.Errorf("%s: mapped open took %v, budget 50ms", name, best)
		}
	}
}

// syntheticSnapshot builds a seeded syngen-style dictionary nothing was
// mined for: pronounceable pseudo-word titles with model codes, each
// with a few aliases (dropped tokens, code-only, squeezed spacing), so
// the agreement test below also covers strings and postings no curated
// corpus contains.
func syntheticSnapshot(seed uint64, entities int) *Snapshot {
	r := rng.New(seed)
	syllables := []string{"ka", "lo", "mi", "ren", "tu", "vas", "zor", "pel", "dra", "quin", "osh", "bem"}
	word := func() string {
		w := ""
		for n := 2 + r.Intn(3); n > 0; n-- {
			w += r.PickString(syllables)
		}
		return w
	}
	dict := match.NewDictionary()
	snap := &Snapshot{Dataset: "Synthetic", MinSim: DefaultFuzzyMinSim, Synonyms: map[string][]string{}, Dict: dict}
	for id := 0; id < entities; id++ {
		brand, model := word(), word()
		code := fmt.Sprintf("%s%d", string(rune('a'+r.Intn(26))), 100+r.Intn(900))
		canonical := brand + " " + model + " " + code
		snap.Canonicals = append(snap.Canonicals, canonical)
		dict.Add(canonical, match.Entry{EntityID: id, Score: 1, Source: "canonical"})
		aliases := []string{brand + " " + code, model + " " + code, brand + model}
		for _, a := range aliases[:1+r.Intn(len(aliases))] {
			dict.Add(a, match.Entry{EntityID: id, Score: 0.3 + 0.6*r.Float64(), Source: "mined"})
		}
		snap.Synonyms[canonical] = aliases
	}
	snap.Fuzzy = dict.NewFuzzyIndex(snap.MinSim).Packed()
	return snap
}

// TestMappedSnapshotServesIdentically is the one-decoder property at
// the serving level: for every mined corpus and a seeded synthetic
// dictionary, a generation prepared from ReadSnapshotFile and one from
// OpenSnapshotMapped of the same file answer the differential request
// matrix (modes × TopK × explain × rewrite) with byte-identical JSON.
func TestMappedSnapshotServesIdentically(t *testing.T) {
	dir := t.TempDir()
	snaps := allSnapshots(t)
	snaps["synthetic"] = syntheticSnapshot(16, 400)
	for name, snap := range snaps {
		path := filepath.Join(dir, name+".snap")
		if err := snap.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenSnapshotMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		read, err := ReadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !mapped.Fuzzy.Mapped() || read.Fuzzy.Mapped() {
			t.Fatalf("%s: modes crossed (mapped %v, read %v)", name, mapped.Fuzzy.Mapped(), read.Fuzzy.Mapped())
		}
		a := NewMatchServer(mapped, ServeConfig{CacheSize: -1})
		b := NewMatchServer(read, ServeConfig{CacheSize: -1})
		queries := diffQuerySet(snap)
		if snap.Vocab != nil {
			// Attribute phrasing for the rewrite leg: a categorical value
			// and a numeric comparator from this domain's own vocabulary.
			for _, c := range snap.Vocab.Categorical {
				queries = append(queries, snap.Canonicals[0]+" "+c.Values[0])
			}
			for _, n := range snap.Vocab.Numeric {
				queries = append(queries, fmt.Sprintf("%s under %g", snap.Canonicals[1], n.Max))
			}
		}
		checked := 0
		for _, mode := range []match.Mode{"", match.ModeSegment, match.ModeSpan, match.ModeFuzzy} {
			for _, topK := range []int{0, 1, 3} {
				for _, flags := range []struct{ explain, rewrite bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
					for _, q := range queries {
						req := match.Request{Query: q, Mode: mode, TopK: topK, Explain: flags.explain, Rewrite: flags.rewrite}
						ra, errA := a.Do(req)
						rb, errB := b.Do(req)
						if (errA == nil) != (errB == nil) {
							t.Fatalf("%s %+v: error divergence %v vs %v", name, req, errA, errB)
						}
						ra.Timing, rb.Timing = match.Timing{}, match.Timing{}
						ja, _ := json.Marshal(ra)
						jb, _ := json.Marshal(rb)
						if string(ja) != string(jb) {
							t.Fatalf("%s %+v: mapped and read servers disagree:\n mapped %s\n read   %s", name, req, ja, jb)
						}
						checked++
					}
				}
			}
		}
		t.Logf("%s: %d requests byte-identical across the two openers", name, checked)
	}
}
