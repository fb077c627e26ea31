package clickgraph

import (
	"testing"
	"testing/quick"

	"websyn/internal/clicklog"
)

// demoLog builds a small log: two queries sharing one page.
func demoLog() *clicklog.Log {
	l := clicklog.NewLog()
	l.AddImpression("alpha")
	l.AddImpression("beta")
	for i := 0; i < 3; i++ {
		l.AddClick("alpha", 100)
	}
	l.AddClick("alpha", 200)
	l.AddClick("beta", 100)
	l.AddClick("beta", 300)
	l.AddClick("beta", 300)
	return l
}

func TestBuildCounts(t *testing.T) {
	g := Build(demoLog())
	if g.NumQueries() != 2 {
		t.Fatalf("queries = %d", g.NumQueries())
	}
	if g.NumPages() != 3 {
		t.Fatalf("pages = %d", g.NumPages())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestNodeLookups(t *testing.T) {
	g := Build(demoLog())
	qn, ok := g.QueryNode("alpha")
	if !ok {
		t.Fatal("alpha missing")
	}
	if g.QueryText(qn) != "alpha" {
		t.Fatal("QueryText mismatch")
	}
	if _, ok := g.QueryNode("gamma"); ok {
		t.Fatal("unknown query found")
	}
	pn, ok := g.PageNode(100)
	if !ok {
		t.Fatal("page 100 missing")
	}
	if g.PageID(pn) != 100 {
		t.Fatal("PageID mismatch")
	}
	if _, ok := g.PageNode(999); ok {
		t.Fatal("unknown page found")
	}
}

func TestAdjacencyAndTotals(t *testing.T) {
	g := Build(demoLog())
	qn, _ := g.QueryNode("alpha")
	if g.QueryClicks(qn) != 4 {
		t.Fatalf("alpha clicks = %d", g.QueryClicks(qn))
	}
	edges := g.PagesOf(qn)
	if len(edges) != 2 {
		t.Fatalf("alpha has %d page edges", len(edges))
	}
	total := 0
	for _, e := range edges {
		total += e.Count
	}
	if total != 4 {
		t.Fatalf("alpha edge counts sum %d", total)
	}

	pn, _ := g.PageNode(100)
	if g.PageClicks(pn) != 4 { // 3 from alpha + 1 from beta
		t.Fatalf("page 100 clicks = %d", g.PageClicks(pn))
	}
	back := g.QueriesOf(pn)
	if len(back) != 2 {
		t.Fatalf("page 100 has %d query edges", len(back))
	}
}

func TestReverseEdgesMirrorForward(t *testing.T) {
	g := Build(demoLog())
	// Every q->p edge must appear as p->q with the same count.
	for qn := 0; qn < g.NumQueries(); qn++ {
		for _, e := range g.PagesOf(qn) {
			found := false
			for _, r := range g.QueriesOf(e.To) {
				if r.To == qn && r.Count == e.Count {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge q%d->p%d (count %d) missing in reverse", qn, e.To, e.Count)
			}
		}
	}
}

func TestEmptyLog(t *testing.T) {
	g := Build(clicklog.NewLog())
	if g.NumQueries() != 0 || g.NumPages() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty log produced a non-empty graph")
	}
}

func TestBuildDeterministic(t *testing.T) {
	g1 := Build(demoLog())
	g2 := Build(demoLog())
	if g1.NumQueries() != g2.NumQueries() {
		t.Fatal("query count differs")
	}
	for qn := 0; qn < g1.NumQueries(); qn++ {
		if g1.QueryText(qn) != g2.QueryText(qn) {
			t.Fatal("query node order differs")
		}
	}
	for pn := 0; pn < g1.NumPages(); pn++ {
		if g1.PageID(pn) != g2.PageID(pn) {
			t.Fatal("page node order differs")
		}
	}
}

// Property: total clicks computed from query side equals page side.
func TestQuickClickConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		l := clicklog.NewLog()
		for i, r := range raw {
			q := string(rune('a' + i%7))
			page := int(r % 13)
			l.AddClick(q, page)
		}
		g := Build(l)
		fromQ, fromP := 0, 0
		for qn := 0; qn < g.NumQueries(); qn++ {
			fromQ += g.QueryClicks(qn)
		}
		for pn := 0; pn < g.NumPages(); pn++ {
			fromP += g.PageClicks(pn)
		}
		return fromQ == fromP && fromQ == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
