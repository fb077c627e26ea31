// Package eval implements the paper's evaluation: the oracle judging of
// mined synonyms and the five metrics of Section IV, plus the harnesses
// that regenerate Figure 2, Figure 3 and Table I.
//
// Metrics (paper Section IV):
//
//   - Precision: true synonyms / all synonyms generated.
//   - Weighted Precision: the same, weighted by each string's frequency in
//     the query log.
//   - Coverage Increase: percentage increase in query-log volume matched
//     once mined synonyms join the original strings.
//   - Hit Ratio: fraction of input entries producing at least one synonym.
//   - Expansion Ratio: (synonyms + original entries) / original entries.
//
// Judging uses the alias model as the labeling oracle, standing in for the
// paper's human assessors: a generated string is a true synonym of entity e
// iff the generative ground truth labeled it Synonym for e.
package eval

import (
	"sort"

	"websyn/internal/alias"
	"websyn/internal/clicklog"
	"websyn/internal/textnorm"
)

// Output is one system's synonym output over a catalog: PerEntity[id] holds
// the normalized synonym strings generated for entity id (deduplicated,
// canonical string excluded).
type Output struct {
	Name      string
	PerEntity [][]string
}

// NewOutput allocates an empty output for n entities.
func NewOutput(name string, n int) *Output {
	return &Output{Name: name, PerEntity: make([][]string, n)}
}

// Set records the synonyms of one entity, normalizing, deduplicating and
// dropping the entity's own canonical string.
func (o *Output) Set(entityID int, canonicalNorm string, synonyms []string) {
	seen := make(map[string]bool, len(synonyms))
	var clean []string
	for _, s := range synonyms {
		n := textnorm.Normalize(s)
		if n == "" || n == canonicalNorm || seen[n] {
			continue
		}
		seen[n] = true
		clean = append(clean, n)
	}
	sort.Strings(clean)
	o.PerEntity[entityID] = clean
}

// TotalSynonyms returns the summed synonym count over all entities
// (Table I's "Synonyms" column; duplicates across entities count once
// each, as separate dictionary entries).
func (o *Output) TotalSynonyms() int {
	n := 0
	for _, syns := range o.PerEntity {
		n += len(syns)
	}
	return n
}

// Hits returns how many entities received at least one synonym.
func (o *Output) Hits() int {
	n := 0
	for _, syns := range o.PerEntity {
		if len(syns) > 0 {
			n++
		}
	}
	return n
}

// PrecisionReport carries the precision metrics of one output.
type PrecisionReport struct {
	Generated int     // synonyms judged
	True      int     // judged true by the oracle
	Precision float64 // True/Generated (1 when nothing generated)

	WeightedGenerated float64 // log-frequency mass judged
	WeightedTrue      float64
	WeightedPrecision float64
}

// Precision judges an output against the oracle. Weighting uses each
// string's impression count in the click log ("synonym frequency in query
// log").
func Precision(model *alias.Model, log *clicklog.Log, o *Output) PrecisionReport {
	var r PrecisionReport
	for id, syns := range o.PerEntity {
		for _, s := range syns {
			w := float64(log.Impressions(s))
			r.Generated++
			r.WeightedGenerated += w
			if model.IsSynonym(id, s) {
				r.True++
				r.WeightedTrue += w
			}
		}
	}
	r.Precision = ratioOrOne(float64(r.True), float64(r.Generated))
	r.WeightedPrecision = ratioOrOne(r.WeightedTrue, r.WeightedGenerated)
	return r
}

func ratioOrOne(num, den float64) float64 {
	if den == 0 {
		return 1
	}
	return num / den
}

// CoverageIncrease computes the percentage increase in matched query-log
// volume: the impression mass of the mined synonym strings relative to the
// impression mass of the original canonical strings. A value of 1.2 means
// the synonyms match 120% additional volume.
func CoverageIncrease(model *alias.Model, log *clicklog.Log, o *Output) float64 {
	cat := model.Catalog()
	canonicals := make(map[string]bool, cat.Len())
	base := 0.0
	for _, e := range cat.All() {
		n := e.Norm()
		canonicals[n] = true
		base += float64(log.Impressions(n))
	}
	if base == 0 {
		return 0
	}
	// Distinct synonym strings across the output (a string mined for two
	// entities matches each log query only once).
	seen := make(map[string]bool)
	added := 0.0
	for _, syns := range o.PerEntity {
		for _, s := range syns {
			if canonicals[s] || seen[s] {
				continue
			}
			seen[s] = true
			added += float64(log.Impressions(s))
		}
	}
	return added / base
}

// HitExpansion carries Table I's structural metrics.
type HitExpansion struct {
	Orig      int
	Hits      int
	HitRatio  float64
	Synonyms  int
	Expansion float64 // (synonyms + orig) / orig
}

// HitsAndExpansion computes Table I's per-system row.
func HitsAndExpansion(o *Output) HitExpansion {
	orig := len(o.PerEntity)
	hits := o.Hits()
	syns := o.TotalSynonyms()
	he := HitExpansion{Orig: orig, Hits: hits, Synonyms: syns}
	if orig > 0 {
		he.HitRatio = float64(hits) / float64(orig)
		he.Expansion = float64(syns+orig) / float64(orig)
	}
	return he
}

// LabelBreakdown counts an output's synonyms by their oracle label —
// useful for ablation reporting (which error class survives a threshold).
func LabelBreakdown(model *alias.Model, o *Output) map[alias.Label]int {
	counts := make(map[alias.Label]int)
	for id, syns := range o.PerEntity {
		for _, s := range syns {
			l, _ := model.LabelFor(id, s)
			counts[l]++
		}
	}
	return counts
}
