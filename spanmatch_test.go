package websyn

import (
	"bytes"
	"encoding/json"
	"testing"

	"websyn/internal/match"
)

// jsonEq compares two values by JSON encoding.
func jsonEq(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

// The movies/cameras/software cached simulations come from
// websyn_test.go and fuzzydiff_test.go.

// TestEngineSpanFuzzyAcrossDatasets is the tentpole acceptance test:
// for every data set, at least one typo'd multi-token span that plain
// segmentation misses resolves through the engine's span-level fuzzy
// matching, and in-vocabulary leftovers ("showtimes") stay in the
// remainder instead of being swallowed by trigram noise.
func TestEngineSpanFuzzyAcrossDatasets(t *testing.T) {
	cases := []struct {
		name      string
		sim       func(testing.TB) *Simulation
		query     string
		canonical string
		remainder string
	}{
		{
			name: "movies", sim: movies,
			// "kristol" is 3 edits from "crystal": per-token correction
			// cannot bridge it.
			query:     "kingdom of the kristol skull showtimes",
			canonical: "Indiana Jones and the Kingdom of the Crystal Skull",
			remainder: "showtimes",
		},
		{
			name: "movies-suffix-typo", sim: movies,
			query:     "quntum of solacee",
			canonical: "Quantum of Solace",
			remainder: "",
		},
		{
			name: "cameras", sim: cameras,
			// "mrak" -> "mark" is a transposition, 2 plain edits.
			query:     "1ds mrak iii",
			canonical: "Canon EOS 1Ds Mark III",
			remainder: "",
		},
		{
			name: "software", sim: software,
			query:     "microsfot ofice 2007",
			canonical: "Microsoft Office 2007",
			remainder: "",
		},
		{
			name: "software-version-remainder", sim: software,
			query:     "age of empiers 3 demo",
			canonical: "Age of Empires III",
			remainder: "3 demo",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := tc.sim(t)
			results, err := sim.MineAll(DefaultMinerConfig())
			if err != nil {
				t.Fatal(err)
			}
			dict := sim.BuildDictionary(results)
			if seg := dict.Segment(tc.query); len(seg.Matches) > 0 {
				t.Fatalf("Segment already resolves %q to %+v; query no longer demonstrates the gap", tc.query, seg.Matches)
			}

			eng := sim.BuildEngine(results, 0)
			resp, err := eng.Match(MatchRequest{Query: tc.query})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Matches) != 1 {
				t.Fatalf("engine matches = %+v", resp.Matches)
			}
			m := resp.Matches[0]
			if m.Method != match.MethodSpanFuzzy {
				t.Fatalf("method = %q, want span-fuzzy (match %+v)", m.Method, m)
			}
			if m.Canonical != tc.canonical {
				t.Fatalf("resolved %q, want %q", m.Canonical, tc.canonical)
			}
			if m.Similarity <= 0.55 {
				t.Fatalf("similarity %v not above the index threshold", m.Similarity)
			}
			if resp.Remainder != tc.remainder {
				t.Fatalf("remainder %q, want %q", resp.Remainder, tc.remainder)
			}
		})
	}
}

// TestEngineMatchesServerDo proves the facade engine and the serving
// tier answer through the same machinery: Server.Do returns the same
// response (modulo timing) as the engine it wraps.
func TestEngineMatchesServerDo(t *testing.T) {
	snap := movieSnapshot(t)
	srv := NewMatchServer(snap, ServeConfig{CacheSize: -1})
	for _, q := range []string{
		"indy 4 near san fran",
		"kingdom of the kristol skull showtimes",
		"best pizza in town",
	} {
		req := MatchRequest{Query: q, TopK: 3}
		want, err := srv.Engine().Match(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := srv.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		want.Timing, got.Timing = MatchResponse{}.Timing, MatchResponse{}.Timing
		if !jsonEq(t, got, want) {
			t.Fatalf("Do(%q) diverged from Engine().Match:\n got %+v\nwant %+v", q, got, want)
		}
	}
}
