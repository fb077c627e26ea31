package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"

	"websyn/internal/match"
	"websyn/internal/serve"
)

// canonical reduces one item's result to the bytes answers are compared
// by: the whole response — entity ids, spans, scores, remainder,
// attributes, residual, domain stamps — with the fields that legitimately
// differ between two runs of the same query (timing, cached) dropped.
func canonical(res serve.V1Result) []byte {
	if res.Error != "" || res.Response == nil {
		b, _ := json.Marshal(map[string]string{"error": res.Error}) // a string map cannot fail to marshal
		return b
	}
	r := *res.Response
	r.Timing = match.Timing{}
	b, err := json.Marshal(&r)
	if err != nil {
		// match.Response is plain data; a failure here is a program bug.
		panic(err)
	}
	return b
}

// resolves reports whether the response names the entity the query was
// generated from. Federated responses stamp each match with its domain,
// and entity ids are per domain, so the stamp must agree when present.
func resolves(q query, res serve.V1Result) bool {
	if res.Response == nil {
		return false
	}
	for _, m := range res.Response.Matches {
		if m.EntityID == q.SrcEntity && (m.Domain == "" || m.Domain == q.SrcDomain) {
			return true
		}
	}
	return false
}

// answerSet is what a workload's responses are checked against.
type answerSet struct {
	Queries  []query
	Expected [][]byte // canonical in-process answer per query
	// Resolved reports whether the in-process answer names the query's
	// source entity. An exact query for which it does not fails every
	// time it is sent.
	Resolved []bool
}

// unresolved reports whether query qi is an exact query the program
// already answers wrongly in-process.
func (a *answerSet) unresolved(qi int) bool {
	return a.Queries[qi].Class == classExact && !a.Resolved[qi]
}

// recall is the share of a class's queries whose in-process answer names
// their source entity; 0 when the class is absent.
func (a *answerSet) recall(class string) float64 {
	hit, n := 0, 0
	for i, q := range a.Queries {
		if q.Class == class {
			n++
			if a.Resolved[i] {
				hit++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(hit) / float64(n)
}

// checkResponse counts the failed items of one POST. Every response must
// be a 200 with a body; with full set the body is decoded and each item
// compared with the in-process answer, and — independently of the
// program — every exact query must name its source entity, so a wrong
// answer fails even when HTTP and the Go API agree on it.
func (a *answerSet) checkResponse(status int, body []byte, items []int, full bool) (failed int) {
	if status != http.StatusOK || len(body) == 0 {
		return len(items)
	}
	if !full {
		for _, qi := range items {
			if a.unresolved(qi) {
				failed++
			}
		}
		return failed
	}
	var resp serve.V1Response
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != len(items) {
		return len(items)
	}
	for i, qi := range items {
		q := a.Queries[qi]
		got := resp.Results[i]
		if !bytes.Equal(canonical(got), a.Expected[qi]) || (q.Class == classExact && !resolves(q, got)) {
			failed++
		}
	}
	return failed
}

// sha digests the queries and their expected answers, in order. It moves
// when the generator, the corpus or the program's answers change.
func (a *answerSet) sha() string {
	h := sha256.New()
	for i, q := range a.Queries {
		h.Write([]byte(q.Class + "\x00" + q.Domain + "\x00" + q.Text + "\x00"))
		h.Write(a.Expected[i])
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
