// Command loggen materializes the simulation's two data sets to disk:
// Search Data A, Click Data L, and the impressions sidecar, in TSV or the
// compact binary format. cmd/syngen and external tools can then run from
// files without rebuilding the simulation.
//
// Usage:
//
//	loggen [-dataset movies|cameras] [-seed N] [-impressions N]
//	       [-format tsv|bin] [-dir out/]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"websyn"
)

func main() {
	var (
		dataset     = flag.String("dataset", "movies", "data set: movies or cameras")
		seed        = flag.Uint64("seed", 0, "simulation seed (0 = default)")
		impressions = flag.Int("impressions", 0, "simulated impressions (0 = default)")
		format      = flag.String("format", "tsv", "output format: tsv or bin")
		dir         = flag.String("dir", "logs", "output directory")
	)
	flag.Parse()

	ds, err := websyn.ParseDataset(*dataset)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := websyn.NewSimulation(websyn.Options{
		Dataset: ds, Seed: *seed, Impressions: *impressions,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatal(err)
	}

	// The Save/Load pairs pick the codec by extension.
	ext := ".tsv"
	if *format == "bin" {
		ext = ".bin"
	}
	searchPath := filepath.Join(*dir, "search"+ext)
	clicksPath := filepath.Join(*dir, "clicks"+ext)
	imprPath := filepath.Join(*dir, "impressions.tsv")
	if err := sim.SaveSearchData(searchPath); err != nil {
		log.Fatal(err)
	}
	if err := sim.SaveClickLog(clicksPath, imprPath); err != nil {
		log.Fatal(err)
	}
	tuples, clicks := len(sim.Search.Tuples()), len(sim.Log.Flatten())
	fmt.Printf("wrote %s (%d tuples), %s (%d clicks), %s (%d queries)\n",
		searchPath, tuples, clicksPath, clicks, imprPath, len(sim.Log.Queries()))

	// Round-trip sanity check so a corrupted write fails loudly here, not
	// in a downstream consumer.
	sd, err := websyn.LoadSearchData(searchPath, sim.Options.SurrogateK)
	if err != nil {
		log.Fatal(err)
	}
	if got := len(sd.Tuples()); got != tuples {
		log.Fatalf("search round trip lost tuples: %d != %d", got, tuples)
	}
	cl, err := websyn.LoadClickLog(clicksPath, imprPath)
	if err != nil {
		log.Fatal(err)
	}
	if got := len(cl.Flatten()); got != clicks {
		log.Fatalf("clicks round trip lost tuples: %d != %d", got, clicks)
	}
	fmt.Println("round-trip verification OK")
}
