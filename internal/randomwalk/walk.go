// Package randomwalk implements the click-graph random-walk baseline the
// paper compares against in Section IV.B: the walk of Craswell & Szummer
// ("Random walks on the click graph", SIGIR 2007) as used by Fuxman et al.
// for keyword generation, with the default self-transition probability 0.8
// — the paper's "Walk(0.8)".
//
// The walk starts at the input string's query node and spreads probability
// mass over the bipartite click graph: with probability s the walker stays
// put, with probability 1-s it follows a click edge chosen proportionally
// to click counts. After a fixed number of steps, the other query nodes
// are ranked by probability mass; sufficiently probable ones are emitted as
// synonyms.
//
// The baseline's structural weakness — the one Table I exposes on the
// camera data set — falls out of the definition: the walk operates entirely
// on the click graph, so an input string that was never issued as a query
// has no start node and produces nothing ("if a query has not been asked
// then no synonym will be produced").
package randomwalk

import (
	"fmt"
	"sort"

	"websyn/internal/clickgraph"
	"websyn/internal/textnorm"
)

// Direction selects the edge normalization of the walk.
type Direction int

const (
	// Forward normalizes transitions by the source node's click total:
	// P(v|u) = (1-s) * C(u,v) / Σ_w C(u,w). Mass is conserved.
	Forward Direction = iota
	// Backward normalizes by the destination node's click total:
	// P(v|u) = (1-s) * C(u,v) / Σ_w C(w,v) — the "backward" transition of
	// Craswell & Szummer, which downweights popular destinations and
	// models "where would a walker have come from". Mass is not conserved
	// (the matrix is substochastic), so Backward scores are comparable
	// only within one walk.
	Backward
)

// String names the direction.
func (d Direction) String() string {
	if d == Backward {
		return "backward"
	}
	return "forward"
}

// Config tunes the walk.
type Config struct {
	// SelfTransition is the probability s of staying at the current node
	// each step. The paper evaluates the default 0.8.
	SelfTransition float64
	// Steps is the number of walk steps. Mass reaches other query nodes in
	// multiples of two steps (query -> page -> query).
	Steps int
	// MinProb is the probability-mass threshold for emitting a query node
	// as a synonym.
	MinProb float64
	// MaxSynonyms caps the output per input (0 = uncapped).
	MaxSynonyms int
	// Direction selects forward (default) or backward edge normalization.
	Direction Direction
}

// DefaultConfig mirrors the cited work's defaults: self-transition 0.8,
// a short walk, and a small mass threshold.
func DefaultConfig() Config {
	return Config{
		SelfTransition: 0.8,
		Steps:          4,
		MinProb:        0.012,
		MaxSynonyms:    3,
	}
}

// check validates the configuration.
func (c Config) check() error {
	if c.SelfTransition < 0 || c.SelfTransition >= 1 {
		return fmt.Errorf("randomwalk: self-transition %v outside [0,1)", c.SelfTransition)
	}
	if c.Steps < 2 {
		return fmt.Errorf("randomwalk: need at least 2 steps, got %d", c.Steps)
	}
	if c.MinProb < 0 || c.MinProb > 1 {
		return fmt.Errorf("randomwalk: MinProb %v outside [0,1]", c.MinProb)
	}
	return nil
}

// Walker runs walks over one click graph.
type Walker struct {
	cfg   Config
	graph *clickgraph.Graph
}

// NewWalker builds a walker. The graph should be the same one the miner
// uses, so the comparison is apples-to-apples.
func NewWalker(g *clickgraph.Graph, cfg Config) (*Walker, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("randomwalk: graph is required")
	}
	return &Walker{cfg: cfg, graph: g}, nil
}

// Ranked is one ranked walk output.
type Ranked struct {
	Text string
	Prob float64
}

// Synonyms returns the synonym strings for the input, best first. Inputs
// that never occur as queries in the click log yield nil.
func (w *Walker) Synonyms(input string) []string {
	ranked := w.Walk(input)
	if len(ranked) == 0 {
		return nil
	}
	out := make([]string, 0, len(ranked))
	for _, r := range ranked {
		out = append(out, r.Text)
	}
	return out
}

// Walk runs the walk and returns the thresholded, ranked query
// distribution, excluding the start node.
func (w *Walker) Walk(input string) []Ranked {
	norm := textnorm.Normalize(input)
	start, ok := w.graph.QueryNode(norm)
	if !ok {
		return nil // the walk's documented failure mode
	}
	s := w.cfg.SelfTransition
	qDist := map[int]float64{start: 1}
	pDist := map[int]float64{}
	for step := 0; step < w.cfg.Steps; step++ {
		nextQ := make(map[int]float64, len(qDist))
		nextP := make(map[int]float64, len(pDist))
		// Sources are visited in node order: float sums depend on the order
		// of their terms, and map order would make a walk's scores (and so
		// its ranking at near-ties) differ from run to run.
		for _, qn := range sortedNodes(qDist) {
			mass := qDist[qn]
			nextQ[qn] += s * mass
			spread := (1 - s) * mass
			for _, e := range w.graph.PagesOf(qn) {
				var total float64
				if w.cfg.Direction == Backward {
					total = float64(w.graph.PageClicks(e.To))
				} else {
					total = float64(w.graph.QueryClicks(qn))
				}
				if total == 0 {
					continue
				}
				nextP[e.To] += spread * float64(e.Count) / total
			}
		}
		for _, pn := range sortedNodes(pDist) {
			mass := pDist[pn]
			nextP[pn] += s * mass
			spread := (1 - s) * mass
			for _, e := range w.graph.QueriesOf(pn) {
				var total float64
				if w.cfg.Direction == Backward {
					total = float64(w.graph.QueryClicks(e.To))
				} else {
					total = float64(w.graph.PageClicks(pn))
				}
				if total == 0 {
					continue
				}
				nextQ[e.To] += spread * float64(e.Count) / total
			}
		}
		qDist, pDist = nextQ, nextP
	}

	ranked := make([]Ranked, 0, len(qDist))
	for qn, mass := range qDist {
		if qn == start || mass < w.cfg.MinProb {
			continue
		}
		ranked = append(ranked, Ranked{Text: w.graph.QueryText(qn), Prob: mass})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Prob != ranked[j].Prob {
			return ranked[i].Prob > ranked[j].Prob
		}
		return ranked[i].Text < ranked[j].Text
	})
	if w.cfg.MaxSynonyms > 0 && len(ranked) > w.cfg.MaxSynonyms {
		ranked = ranked[:w.cfg.MaxSynonyms]
	}
	return ranked
}

// sortedNodes returns the node indexes of a mass distribution in
// ascending order.
func sortedNodes(dist map[int]float64) []int {
	nodes := make([]int, 0, len(dist))
	for n := range dist {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	return nodes
}
