// Package clickgraph builds the bipartite query-URL click graph induced by
// Click Data L.
//
// Two consumers share it: the miner's candidate generation (paper Section
// III.A walks url->query edges to find every query that clicked a
// surrogate), and the random-walk baseline (Craswell & Szummer's walk,
// paper Section IV.B, runs directly on this graph).
package clickgraph

import (
	"sort"

	"websyn/internal/clicklog"
)

// Edge is one weighted adjacency: To is a node index on the opposite side,
// Count the click count.
type Edge struct {
	To    int
	Count int
}

// Graph is the immutable bipartite click graph. Query nodes and page nodes
// have independent dense indexes.
type Graph struct {
	queries  []string
	queryIdx map[string]int
	pages    []int
	pageIdx  map[int]int

	q2p [][]Edge // query node -> page node edges
	p2q [][]Edge // page node -> query node edges

	qTotal []int // total clicks out of each query node
	pTotal []int // total clicks into each page node
}

// Build constructs the graph from the aggregated click log.
func Build(log *clicklog.Log) *Graph {
	g := &Graph{
		queryIdx: make(map[string]int),
		pageIdx:  make(map[int]int),
	}
	// Queries in sorted order for determinism.
	for _, q := range log.ClickedQueries() {
		g.queryIdx[q] = len(g.queries)
		g.queries = append(g.queries, q)
	}
	g.q2p = make([][]Edge, len(g.queries))
	g.qTotal = make([]int, len(g.queries))

	for qi, q := range g.queries {
		pages := log.ClickedPages(q)
		ids := make([]int, 0, len(pages))
		for p := range pages {
			ids = append(ids, p)
		}
		sort.Ints(ids)
		for _, pageID := range ids {
			pi, ok := g.pageIdx[pageID]
			if !ok {
				pi = len(g.pages)
				g.pageIdx[pageID] = pi
				g.pages = append(g.pages, pageID)
				g.p2q = append(g.p2q, nil)
				g.pTotal = append(g.pTotal, 0)
			}
			n := pages[pageID]
			g.q2p[qi] = append(g.q2p[qi], Edge{To: pi, Count: n})
			g.p2q[pi] = append(g.p2q[pi], Edge{To: qi, Count: n})
			g.qTotal[qi] += n
			g.pTotal[pi] += n
		}
	}
	return g
}

// NumQueries returns the number of query nodes.
func (g *Graph) NumQueries() int { return len(g.queries) }

// NumPages returns the number of page nodes.
func (g *Graph) NumPages() int { return len(g.pages) }

// NumEdges returns the number of distinct (query, page) click pairs.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.q2p {
		n += len(es)
	}
	return n
}

// QueryNode returns the node index of a normalized query string.
func (g *Graph) QueryNode(query string) (int, bool) {
	i, ok := g.queryIdx[query]
	return i, ok
}

// QueryText returns the string of a query node.
func (g *Graph) QueryText(node int) string { return g.queries[node] }

// PageNode returns the node index of a page ID.
func (g *Graph) PageNode(pageID int) (int, bool) {
	i, ok := g.pageIdx[pageID]
	return i, ok
}

// PageID returns the page ID of a page node.
func (g *Graph) PageID(node int) int { return g.pages[node] }

// PagesOf returns the page edges of a query node (GL as adjacency).
func (g *Graph) PagesOf(queryNode int) []Edge { return g.q2p[queryNode] }

// QueriesOf returns the query edges of a page node — the reverse walk the
// miner's candidate generation uses.
func (g *Graph) QueriesOf(pageNode int) []Edge { return g.p2q[pageNode] }

// QueryClicks returns the total outgoing click count of a query node.
func (g *Graph) QueryClicks(queryNode int) int { return g.qTotal[queryNode] }

// PageClicks returns the total incoming click count of a page node.
func (g *Graph) PageClicks(pageNode int) int { return g.pTotal[pageNode] }
