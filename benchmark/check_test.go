package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"websyn/internal/match"
	"websyn/internal/serve"
)

// fixture is one exact and one attributes query with their answers.
func fixture() (*answerSet, []serve.V1Result) {
	qs := []query{
		{Text: "indy 4 tickets2go", Class: classExact, Domain: "movies", SrcDomain: "movies", SrcEntity: 7},
		{Text: "indy 4 under 2008", Class: classAttributes, Domain: "movies", SrcDomain: "movies", SrcEntity: 7},
	}
	results := []serve.V1Result{
		{Response: &match.Response{
			Query: "indy 4 tickets2go", Remainder: "tickets2go", Domain: "movies",
			Matches: []match.SpanMatch{{EntityID: 7, Span: "indy 4", End: 2, Score: 0.8, Method: match.MethodTrie}},
			Timing:  match.Timing{TotalMicros: 12},
		}},
		{Response: &match.Response{
			Query: "indy 4 under 2008", Remainder: "under 2008", Domain: "movies",
			Matches:    []match.SpanMatch{{EntityID: 7, Span: "indy 4", End: 2, Score: 0.8, Method: match.MethodTrie}},
			Attributes: []match.Predicate{{Column: "year", Op: "lt", Value: 2008, Span: "under 2008", Start: 2, End: 4}},
			Timing:     match.Timing{TotalMicros: 15},
		}},
	}
	a := &answerSet{Queries: qs, Resolved: []bool{true, true}}
	for _, r := range results {
		a.Expected = append(a.Expected, canonical(r))
	}
	return a, results
}

func body(t *testing.T, results ...serve.V1Result) []byte {
	t.Helper()
	b, err := json.Marshal(serve.V1Response{Count: len(results), Results: results})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckerAcceptsTheRightAnswer(t *testing.T) {
	a, res := fixture()
	// timing and cached legitimately differ between two runs
	res[0].Response.Timing.TotalMicros = 99
	res[0].Cached = true
	if failed := a.checkResponse(http.StatusOK, body(t, res...), []int{0, 1}, true); failed != 0 {
		t.Errorf("%d items failed on a correct response", failed)
	}
}

func TestCheckerCountsWrongResponsesAsFailed(t *testing.T) {
	cases := []struct {
		name   string
		status int
		mutate func(res []serve.V1Result, b []byte) []byte
		failed int
	}{
		{"flipped entity id", http.StatusOK, func(res []serve.V1Result, _ []byte) []byte {
			res[0].Response.Matches[0].EntityID = 8
			return nil
		}, 1},
		{"dropped attribute", http.StatusOK, func(res []serve.V1Result, _ []byte) []byte {
			res[1].Response.Attributes = nil
			return nil
		}, 1},
		{"non-200", http.StatusServiceUnavailable, nil, 2},
		{"truncated body", http.StatusOK, func(_ []serve.V1Result, b []byte) []byte { return b[:len(b)/2] }, 2},
		{"empty body", http.StatusOK, func(_ []serve.V1Result, b []byte) []byte { return b[:0] }, 2},
		{"missing item", http.StatusOK, func(res []serve.V1Result, _ []byte) []byte {
			b, _ := json.Marshal(serve.V1Response{Count: 1, Results: res[:1]})
			return b
		}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, res := fixture()
			b := body(t, res...)
			if c.mutate != nil {
				if nb := c.mutate(res, b); nb != nil {
					b = nb
				} else {
					b = body(t, res...)
				}
			}
			if failed := a.checkResponse(c.status, b, []int{0, 1}, true); failed != c.failed {
				t.Errorf("%d items failed, want %d", failed, c.failed)
			}
			// The failures must reach error accounting: the run is not correct.
			if c.failed > 0 && a.checkResponse(c.status, b, []int{0, 1}, true) == 0 {
				t.Error("failure not repeatable")
			}
		})
	}
}

// The in-process answer is not the authority for exact queries: when the
// program resolves one to the wrong entity, HTTP and the Go API agree and
// the request still fails — decoded or not.
func TestExactQueryMustNameItsSource(t *testing.T) {
	a, res := fixture()
	res[0].Response.Matches[0].EntityID = 8
	a.Expected[0] = canonical(res[0]) // the program "agrees with itself"
	a.Resolved[0] = resolves(a.Queries[0], res[0])
	b := body(t, res...)
	if !bytes.Equal(canonical(res[0]), a.Expected[0]) {
		t.Fatal("fixture broken")
	}
	if failed := a.checkResponse(http.StatusOK, b, []int{0, 1}, true); failed != 1 {
		t.Errorf("decoded: %d items failed, want 1", failed)
	}
	if failed := a.checkResponse(http.StatusOK, b, []int{0, 1}, false); failed != 1 {
		t.Errorf("undecoded: %d items failed, want 1", failed)
	}
	if r := a.recall(classExact); r != 0 {
		t.Errorf("exact recall %v, want 0", r)
	}
}

// A federated response stamps each match with its domain; the same entity
// id in another domain is a different entity.
func TestResolvesChecksTheDomainStamp(t *testing.T) {
	q := query{Class: classExact, SrcDomain: "movies", SrcEntity: 7}
	hit := serve.V1Result{Response: &match.Response{Matches: []match.SpanMatch{{EntityID: 7, Domain: "cameras"}}}}
	if resolves(q, hit) {
		t.Error("entity 7 of cameras accepted for entity 7 of movies")
	}
	hit.Response.Matches = append(hit.Response.Matches, match.SpanMatch{EntityID: 7, Domain: "movies"})
	if !resolves(q, hit) {
		t.Error("entity 7 of movies not found")
	}
}
