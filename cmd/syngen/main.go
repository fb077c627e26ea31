// Command syngen runs the end-to-end mining pipeline: build the simulation
// substrate for one data set, mine synonyms for every canonical string at
// the chosen thresholds, and print (or write) the expanded dictionary.
//
// Usage:
//
//	syngen [-dataset movies|cameras] [-ipc 4] [-icr 0.1] [-seed N]
//	       [-impressions N] [-show N] [-evidence] [-o file.tsv]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"websyn"
	"websyn/internal/eval"
)

func main() {
	var (
		dataset     = flag.String("dataset", "movies", "data set: movies or cameras")
		ipc         = flag.Int("ipc", 4, "IPC threshold β")
		icr         = flag.Float64("icr", 0.1, "ICR threshold γ")
		seed        = flag.Uint64("seed", 0, "simulation seed (0 = default)")
		impressions = flag.Int("impressions", 0, "simulated impressions (0 = default)")
		show        = flag.Int("show", 10, "entities to print to stdout")
		evidence    = flag.Bool("evidence", false, "print per-candidate IPC/ICR evidence")
		classify    = flag.Bool("classify", false, "print the Figure 1 relation classification instead of plain synonyms")
		report      = flag.Bool("report", false, "print judged per-entity reports (oracle labels, evidence, misses)")
		out         = flag.String("o", "", "write full synonym TSV to this file")
	)
	flag.Parse()

	ds, err := websyn.ParseDataset(*dataset)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "building %s simulation...\n", ds)
	sim, err := websyn.NewSimulation(websyn.Options{
		Dataset: ds, Seed: *seed, Impressions: *impressions,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "substrate ready in %v (%d pages, %d log impressions)\n",
		time.Since(start).Round(time.Millisecond), sim.Corpus.Len(), sim.Log.TotalImpressions())

	results, err := sim.MineAll(websyn.MinerConfig{IPC: *ipc, ICR: *icr})
	if err != nil {
		log.Fatal(err)
	}

	hits, total := 0, 0
	for _, r := range results {
		if r.Hit() {
			hits++
		}
		total += len(r.Synonyms)
	}
	fmt.Fprintf(os.Stderr, "mined %d synonyms for %d/%d inputs (β=%d, γ=%g) in %v\n",
		total, hits, len(results), *ipc, *icr, time.Since(start).Round(time.Millisecond))

	if *report {
		reports, err := eval.BuildEntityReports(sim.Model, sim.Log, results, *ipc, *icr)
		if err != nil {
			log.Fatal(err)
		}
		for i, rep := range reports {
			if i >= *show {
				break
			}
			fmt.Print(eval.RenderEntityReport(rep))
		}
		rr := eval.Recall(reports)
		fmt.Fprintf(os.Stderr, "aggregate recall: %d/%d oracle synonyms recovered (%.1f%%)\n",
			rr.Recovered, rr.TruthSynonyms, rr.Recall*100)
		return
	}

	var miner *websyn.Miner
	if *classify {
		miner, err = sim.NewMiner(websyn.MinerConfig{IPC: *ipc, ICR: *icr})
		if err != nil {
			log.Fatal(err)
		}
	}

	for i, r := range results {
		if i >= *show {
			break
		}
		fmt.Printf("%s\n", r.Input)
		if *classify {
			classified, err := miner.Classify(r.Input, websyn.DefaultClassifyConfig())
			if err != nil {
				log.Fatal(err)
			}
			for _, c := range classified {
				fmt.Printf("  %-9s %-40s IPC=%2d ICR=%.2f BCR=%.2f\n",
					c.Relation, c.Candidate, c.IPC, c.ICR, c.BCR)
			}
			continue
		}
		if len(r.Synonyms) == 0 {
			fmt.Println("  (no synonyms)")
			continue
		}
		if *evidence {
			for _, ev := range r.Evidence {
				if !ev.Accepted {
					continue
				}
				fmt.Printf("  %-40s IPC=%2d ICR=%.2f clicks=%d/%d\n",
					ev.Candidate, ev.IPC, ev.ICR, ev.ClicksIn, ev.ClicksTotal)
			}
		} else {
			fmt.Printf("  %s\n", strings.Join(r.Synonyms, " | "))
		}
	}

	if *out != "" {
		if err := writeTSV(*out, results); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
}

func writeTSV(path string, results []*websyn.MineResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, r := range results {
		for _, ev := range r.Evidence {
			if !ev.Accepted {
				continue
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%.4f\n", r.Norm, ev.Candidate, ev.IPC, ev.ICR)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
