package websyn

import "websyn/internal/match"

// Matching re-exports: the downstream fuzzy query matcher.
type (
	// MatchDictionary is the compiled synonym dictionary for query
	// matching.
	MatchDictionary = match.Dictionary
	// FuzzyIndex is the trigram index for whole-string fuzzy lookup.
	FuzzyIndex = match.FuzzyIndex
	// FuzzyHit is one fuzzy-lookup result.
	FuzzyHit = match.FuzzyHit
)

// Unified-engine re-exports: the one Request/Response matching surface
// shared by the Go API and POST /v1/match (see docs/API.md).
type (
	// MatchEngine is the single entry point owning the trie, typo
	// correction and the trigram index.
	MatchEngine = match.Engine
	// MatchRequest is the one matching request shape.
	MatchRequest = match.Request
	// MatchResponse is the one matching response shape.
	MatchResponse = match.Response
	// MatchMode selects the engine strategy (span, segment, fuzzy).
	MatchMode = match.Mode
	// SpanMatch is one resolved span in a MatchResponse.
	SpanMatch = match.SpanMatch
)

// Engine modes.
const (
	ModeSpan    = match.ModeSpan
	ModeSegment = match.ModeSegment
	ModeFuzzy   = match.ModeFuzzy
)

// NewMatchEngine assembles an engine from its parts. fuzzy is the
// trigram index over dict, or nil for segmentation only; canonicals maps
// entity ID to canonical string and may be nil; minSim <= 0 uses the
// package default.
func NewMatchEngine(dict *MatchDictionary, fuzzy *FuzzyIndex, canonicals []string, minSim float64) *MatchEngine {
	return match.NewEngine(dict, fuzzy, canonicals, minSim)
}

// BuildEngine compiles mined results into a ready-to-query engine: the
// dictionary via BuildDictionary, the trigram index over it, and the
// catalog's entity table. minSim <= 0 means DefaultFuzzyMinSim. The
// engine answers through the same pipeline a MatchServer serves from.
// The one-call form for library users; servers should go through
// BuildSnapshot + NewMatchServer instead.
func (s *Simulation) BuildEngine(results []*MineResult, minSim float64) *MatchEngine {
	if minSim <= 0 {
		minSim = DefaultFuzzyMinSim
	}
	dict := s.BuildDictionary(results)
	return match.NewEngine(dict, dict.NewFuzzyIndex(minSim), s.Catalog.Canonicals(), minSim)
}

// BuildDictionary compiles the catalog's canonical strings plus the mined
// synonyms into a fuzzy-match dictionary — the artifact the paper's whole
// pipeline exists to produce. Mined entries are scored by their evidence:
// score = ICR * min(IPC, k)/k, scaled under the canonical score of 1.
func (s *Simulation) BuildDictionary(results []*MineResult) *MatchDictionary {
	d := match.NewDictionary()
	for _, e := range s.Catalog.All() {
		d.Add(e.Canonical, match.Entry{EntityID: e.ID, Score: 1.0, Source: "canonical"})
	}
	k := float64(s.Options.SurrogateK)
	for _, r := range results {
		ent := s.Catalog.ByNorm(r.Norm)
		if ent == nil {
			continue
		}
		for _, ev := range r.Evidence {
			if !ev.Accepted {
				continue
			}
			strength := float64(ev.IPC)
			if strength > k {
				strength = k
			}
			score := 0.99 * ev.ICR * (strength / k)
			d.Add(ev.Candidate, match.Entry{EntityID: ent.ID, Score: score, Source: "mined"})
		}
	}
	return d
}
