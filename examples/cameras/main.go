// Cameras: the D2 experiment with a popularity-tail analysis — the data set
// where the paper's approach most clearly beats both baselines, because
// mining works from the entity's *pages* while Wikipedia and the random
// walk need the entity itself to be popular.
package main

import (
	"fmt"
	"log"
	"sort"

	"websyn"
	"websyn/internal/eval"
)

func main() {
	sim, err := websyn.NewSimulation(websyn.Options{Dataset: websyn.Cameras})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("substrate: %d cameras, %d pages, %d impressions\n\n",
		sim.Catalog.Len(), sim.Corpus.Len(), sim.Log.TotalImpressions())

	results, err := sim.MineAll(websyn.MinerConfig{IPC: 1, ICR: 0})
	if err != nil {
		log.Fatal(err)
	}
	o, err := eval.OutputFromResults(sim.Model, results, "us", 4, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	he := eval.HitsAndExpansion(o)
	fmt.Printf("Us @ (IPC=4, ICR=0.1): hits %d/%d (%.1f%%), %d synonyms, expansion %.0f%%\n\n",
		he.Hits, he.Orig, he.HitRatio*100, he.Synonyms, he.Expansion*100)

	// Hit ratio by popularity decile: the tail is where hit ratio erodes —
	// dead catalog entries attract no queries at all.
	fmt.Println("hit ratio by popularity decile (0 = most searched):")
	const deciles = 10
	hits := make([]int, deciles)
	counts := make([]int, deciles)
	perEntitySyns := make([]int, 0, sim.Catalog.Len())
	total := 0
	for _, e := range sim.Catalog.All() {
		d := e.PopRank * deciles / sim.Catalog.Len()
		counts[d]++
		n := len(o.PerEntity[e.ID])
		perEntitySyns = append(perEntitySyns, n)
		total += n
		if n > 0 {
			hits[d]++
		}
	}
	for d := 0; d < deciles; d++ {
		ratio := float64(hits[d]) / float64(counts[d])
		fmt.Printf("  decile %d: %5.1f%%  (%d/%d)\n", d, ratio*100, hits[d], counts[d])
	}

	sort.Ints(perEntitySyns)
	n := len(perEntitySyns)
	fmt.Printf("\nper-entity synonym count: mean %.3f, median %.1f, max %d\n",
		float64(total)/float64(n), float64(perEntitySyns[(n-1)/2]+perEntitySyns[n/2])/2, perEntitySyns[n-1])

	// The paper's marquee example: a nickname with zero textual overlap.
	rebel := sim.Catalog.ByNorm("canon eos 350d")
	if rebel != nil {
		fmt.Printf("\nCanon EOS 350D mined synonyms: %v\n", o.PerEntity[rebel.ID])
	}
}
