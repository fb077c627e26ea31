// Command dictbuild runs the offline half of the pipeline — simulation,
// synonym mining, dictionary compilation — and writes serving snapshots
// that cmd/matchd loads in milliseconds.
//
// Usage:
//
//	dictbuild -o dict.snap [-dataset movies|cameras|software]
//	          [-ipc 4] [-icr 0.1] [-seed N] [-min-sim 0.55]
//
// The snapshot bundles the compiled dictionary, the entity table and the
// mined synonym listing in a versioned, checksummed binary format (see
// docs/SERVING.md). Build once, serve anywhere:
//
//	dictbuild -dataset movies -o movies.snap
//	matchd -snapshot movies.snap
//
// With -dataset all, dictbuild mines every vertical and writes one
// snapshot per domain into the -o directory (created if missing) —
// the artifact set a multi-domain matchd boots on:
//
//	dictbuild -dataset all -o snapshots/
//	matchd -snapshot movies=snapshots/movies.snap \
//	       -snapshot cameras=snapshots/cameras.snap \
//	       -snapshot software=snapshots/software.snap
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"websyn"
)

// verticals lists every mineable domain: the flag name dictbuild and
// matchd share, and the websyn data set it maps to.
var verticals = []struct {
	name string
	ds   websyn.Dataset
}{
	{"movies", websyn.Movies},
	{"cameras", websyn.Cameras},
	{"software", websyn.SoftwareProducts},
}

func main() {
	var (
		out     = flag.String("o", "", "output snapshot path; with -dataset all, an output directory (required)")
		dataset = flag.String("dataset", "movies", "data set: movies, cameras, software, or all (one snapshot per vertical)")
		ipc     = flag.Int("ipc", 4, "IPC threshold β")
		icr     = flag.Float64("icr", 0.1, "ICR threshold γ")
		seed    = flag.Uint64("seed", 0, "simulation seed (0 = default)")
		minSim  = flag.Float64("min-sim", websyn.DefaultFuzzyMinSim, "fuzzy similarity threshold stored in the snapshot")
		verify  = flag.Bool("verify", false, "re-open each written snapshot in both decoder modes (read and mmap) and fail unless the dictionary and attribute vocabulary round-trip")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "dictbuild: -o is required")
		flag.Usage()
		os.Exit(2)
	}

	cfg := websyn.MinerConfig{IPC: *ipc, ICR: *icr}
	if *dataset == "all" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, v := range verticals {
			build(v.ds, cfg, *seed, *minSim, filepath.Join(*out, v.name+".snap"), *verify)
		}
		return
	}

	ds, err := websyn.ParseDataset(*dataset)
	if err != nil {
		log.Fatal(err)
	}
	build(ds, cfg, *seed, *minSim, *out, *verify)
}

// build mines one vertical and writes its snapshot.
func build(ds websyn.Dataset, cfg websyn.MinerConfig, seed uint64, minSim float64, out string, verify bool) {
	start := time.Now()
	log.Printf("building %v simulation and mining (IPC %d, ICR %g)...", ds, cfg.IPC, cfg.ICR)
	snap, err := websyn.MineSnapshot(ds, cfg, seed, minSim)
	if err != nil {
		log.Fatal(err)
	}
	if err := snap.WriteFile(out); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(out)
	if err != nil {
		log.Fatal(err)
	}
	grams := 0
	if snap.Fuzzy != nil {
		grams = len(snap.Fuzzy.Grams)
	}
	log.Printf("wrote %s: %d dictionary entries, %d entities, %d fuzzy trigrams, %d bytes in %v",
		out, snap.Dict.Len(), len(snap.Canonicals), grams, info.Size(),
		time.Since(start).Round(time.Millisecond))
	if v := snap.Vocab; v != nil {
		values := 0
		for _, c := range v.Categorical {
			values += len(c.Values)
		}
		log.Printf("  vocabulary %q: %d numeric columns, %d categorical columns (%d values)",
			v.Domain, len(v.Numeric), len(v.Categorical), values)
	}
	if verify {
		verifyRoundTrip(snap, out)
	}
}

// verifyRoundTrip re-opens a just-written snapshot through both openers
// — the one decoder in copy mode and in mmap alias mode — and fails the
// build unless the dictionary and the attribute vocabulary survive
// byte-for-byte. This is the CI gate that keeps the WSNP vocabulary
// section honest: a codec slip that silently drops or mangles the
// vocabulary would otherwise only surface as missing /v2 predicates in
// production.
func verifyRoundTrip(want *websyn.Snapshot, path string) {
	for _, opener := range []struct {
		mode string
		open func(string) (*websyn.Snapshot, error)
	}{
		{"read", websyn.ReadSnapshotFile},
		{"mmap", websyn.OpenSnapshotMapped},
	} {
		got, err := opener.open(path)
		if err != nil {
			log.Fatalf("verify (%s): re-opening %s: %v", opener.mode, path, err)
		}
		if got.Dict.Len() != want.Dict.Len() {
			log.Fatalf("verify (%s): %d dictionary entries read back, wrote %d",
				opener.mode, got.Dict.Len(), want.Dict.Len())
		}
		if !reflect.DeepEqual(got.Vocab, want.Vocab) {
			log.Fatalf("verify (%s): attribute vocabulary did not round-trip through %s",
				opener.mode, path)
		}
	}
	log.Printf("  verified: dictionary and vocabulary round-trip (read + mmap)")
}
