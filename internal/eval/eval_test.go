package eval

import (
	"math"
	"strings"
	"testing"

	"websyn/internal/alias"
	"websyn/internal/clicklog"
	"websyn/internal/entity"
)

func movieFixture(t *testing.T) (*alias.Model, *clicklog.Log) {
	t.Helper()
	cat, err := entity.Movies2008()
	if err != nil {
		t.Fatal(err)
	}
	model, err := alias.Build(cat, alias.MovieParams())
	if err != nil {
		t.Fatal(err)
	}
	log := clicklog.NewLog()
	// Hand volumes: the canonical of entity 0 + two informal strings.
	dark := cat.ByID(0)
	for i := 0; i < 100; i++ {
		log.AddImpression(dark.Norm())
	}
	for i := 0; i < 200; i++ {
		log.AddImpression("dark knight")
	}
	for i := 0; i < 50; i++ {
		log.AddImpression("batman") // hypernym
	}
	return model, log
}

func TestOutputSetNormalizesAndDedupes(t *testing.T) {
	o := NewOutput("test", 2)
	o.Set(0, "the dark knight", []string{
		"Dark Knight!", "dark knight", "", "the dark knight", "TDK",
	})
	got := o.PerEntity[0]
	if len(got) != 2 {
		t.Fatalf("synonyms = %v, want [dark knight tdk]", got)
	}
	if got[0] != "dark knight" || got[1] != "tdk" {
		t.Fatalf("synonyms = %v", got)
	}
}

func TestOutputCounts(t *testing.T) {
	o := NewOutput("test", 3)
	o.Set(0, "a", []string{"x", "y"})
	o.Set(2, "b", []string{"z"})
	if o.TotalSynonyms() != 3 {
		t.Fatalf("TotalSynonyms = %d", o.TotalSynonyms())
	}
	if o.Hits() != 2 {
		t.Fatalf("Hits = %d", o.Hits())
	}
}

func TestPrecisionJudging(t *testing.T) {
	model, log := movieFixture(t)
	o := NewOutput("test", model.Catalog().Len())
	dark := model.Catalog().ByID(0)
	// One true synonym (weight 200), one false (hypernym "batman", weight
	// 50).
	o.Set(dark.ID, dark.Norm(), []string{"dark knight", "batman"})

	r := Precision(model, log, o)
	if r.Generated != 2 || r.True != 1 {
		t.Fatalf("counts = %d/%d", r.True, r.Generated)
	}
	if r.Precision != 0.5 {
		t.Fatalf("precision = %v", r.Precision)
	}
	wantW := 200.0 / 250.0
	if math.Abs(r.WeightedPrecision-wantW) > 1e-9 {
		t.Fatalf("weighted = %v, want %v", r.WeightedPrecision, wantW)
	}
}

func TestPrecisionEmptyOutputIsOne(t *testing.T) {
	model, log := movieFixture(t)
	o := NewOutput("empty", model.Catalog().Len())
	r := Precision(model, log, o)
	if r.Precision != 1 || r.WeightedPrecision != 1 {
		t.Fatalf("empty output precision = %v/%v", r.Precision, r.WeightedPrecision)
	}
}

func TestCoverageIncrease(t *testing.T) {
	model, log := movieFixture(t)
	o := NewOutput("test", model.Catalog().Len())
	dark := model.Catalog().ByID(0)
	o.Set(dark.ID, dark.Norm(), []string{"dark knight"})

	// Base = canonical impressions (100); added = 200 -> 200% increase.
	got := CoverageIncrease(model, log, o)
	if math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("coverage increase = %v, want 2.0", got)
	}
}

func TestCoverageCountsDistinctStringsOnce(t *testing.T) {
	model, log := movieFixture(t)
	o := NewOutput("test", model.Catalog().Len())
	dark := model.Catalog().ByID(0)
	iron := model.Catalog().ByID(1)
	// The same string mined for two entities must add its volume once.
	o.Set(dark.ID, dark.Norm(), []string{"dark knight"})
	o.Set(iron.ID, iron.Norm(), []string{"dark knight"})
	got := CoverageIncrease(model, log, o)
	if math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("coverage increase = %v, want 2.0 (no double count)", got)
	}
}

func TestCoverageExcludesCanonicals(t *testing.T) {
	model, log := movieFixture(t)
	o := NewOutput("test", model.Catalog().Len())
	dark := model.Catalog().ByID(0)
	iron := model.Catalog().ByID(1)
	// Mining another entity's canonical adds no coverage (it was already
	// matched by the original strings).
	o.Set(iron.ID, iron.Norm(), []string{dark.Norm()})
	if got := CoverageIncrease(model, log, o); got != 0 {
		t.Fatalf("coverage increase = %v, want 0", got)
	}
}

func TestHitsAndExpansion(t *testing.T) {
	o := NewOutput("test", 100)
	for i := 0; i < 99; i++ {
		o.Set(i, "canon", []string{"s1", "s2", "s3", "s4"})
	}
	he := HitsAndExpansion(o)
	if he.Orig != 100 || he.Hits != 99 {
		t.Fatalf("he = %+v", he)
	}
	if math.Abs(he.HitRatio-0.99) > 1e-9 {
		t.Fatalf("hit ratio = %v", he.HitRatio)
	}
	if he.Synonyms != 99*4 {
		t.Fatalf("synonyms = %d", he.Synonyms)
	}
	want := float64(99*4+100) / 100
	if math.Abs(he.Expansion-want) > 1e-9 {
		t.Fatalf("expansion = %v, want %v", he.Expansion, want)
	}
}

func TestPaperExpansionArithmetic(t *testing.T) {
	// Sanity-check the metric against the paper's own rows: Movies Us has
	// 100 entries and 437 synonyms -> 537%.
	o := NewOutput("us", 100)
	count := 0
	for i := 0; i < 100 && count < 437; i++ {
		var syns []string
		for j := 0; j < 5 && count < 437; j++ {
			syns = append(syns, strings.Repeat("s", j+1))
			count++
		}
		o.Set(i, "canon", syns)
	}
	he := HitsAndExpansion(o)
	if math.Abs(he.Expansion-5.37) > 1e-9 {
		t.Fatalf("expansion = %v, want 5.37", he.Expansion)
	}
}

func TestLabelBreakdown(t *testing.T) {
	model, _ := movieFixture(t)
	o := NewOutput("test", model.Catalog().Len())
	dark := model.Catalog().ByID(0)
	o.Set(dark.ID, dark.Norm(), []string{"dark knight", "unknown gibberish"})
	bd := LabelBreakdown(model, o)
	if bd[alias.Synonym] != 1 {
		t.Fatalf("breakdown = %v", bd)
	}
	if bd[alias.Noise] != 1 {
		t.Fatalf("breakdown = %v", bd)
	}
}

func TestRenderersProduceTables(t *testing.T) {
	fig2 := RenderFigure2([]Fig2Point{{Beta: 4, Syns: 10, Precision: 0.5, Weighted: 0.6, Coverage: 1.2}})
	if !strings.Contains(fig2, "Figure 2") || !strings.Contains(fig2, "120.0%") {
		t.Fatalf("fig2 render: %q", fig2)
	}
	fig3 := RenderFigure3([]Fig3Point{{Beta: 4, Gamma: 0.1, Syns: 5, Weighted: 0.7, Coverage: 1.0}})
	if !strings.Contains(fig3, "Syns W 4") {
		t.Fatalf("fig3 render: %q", fig3)
	}
	t1 := RenderTable1([]Table1Row{{Dataset: "Movies", System: "Us",
		HitExpansion: HitExpansion{Orig: 100, Hits: 99, HitRatio: 0.99, Synonyms: 437, Expansion: 5.37}}})
	if !strings.Contains(t1, "Table I") || !strings.Contains(t1, "Movies") {
		t.Fatalf("table1 render: %q", t1)
	}
}

func TestOutputFromResultsRejectsUnknownInputs(t *testing.T) {
	model, _ := movieFixture(t)
	_, err := OutputFromResults(model, nil, "x", 4, 0.1)
	if err != nil {
		t.Fatalf("empty results should succeed: %v", err)
	}
}
