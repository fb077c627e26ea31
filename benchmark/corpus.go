package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"websyn"
	"websyn/internal/match"
	"websyn/internal/rewrite"
	"websyn/internal/serve"
)

// A tier is one corpus size the benchmark runs at.
const (
	tierToy   = "toy"   // the three shipped verticals, mined at set-up
	tierScale = "scale" // synthetic catalogue, see genScale
)

// toyDomains are the verticals of the toy tier, in registry order (the
// first is the registry's default domain).
var toyDomains = []string{"movies", "cameras", "software"}

// scaleDomain is the domain name the scale snapshot is registered under
// where a registry serves it (fleet replicas, the ladder's registry rung).
const scaleDomain = "scale"

// domainCorpus is one domain's snapshot plus what the generator needs
// from it.
type domainCorpus struct {
	Name    string
	Snap    *serve.Snapshot
	Path    string   // snapshot file, written by corpus.write
	Sources []source // unambiguous dictionary strings, in dictionary order
	Phrases []string // attribute phrases for the attributes class
}

// corpus is one tier's data.
type corpus struct {
	Tier    string
	Domains []*domainCorpus
	// SHA is the digest of every domain's sorted dictionary strings: it
	// changes when mining output (toy) or the generator (scale) changes.
	SHA string
}

// mineToy mines the three verticals with the shipped defaults. The seed
// is fixed: the toy tier is the repository's own data, not a generated
// input, so its digest moves only when mining itself changes.
func mineToy() (*corpus, error) {
	c := &corpus{Tier: tierToy, Domains: make([]*domainCorpus, len(toyDomains))}
	errs := make([]error, len(toyDomains))
	var wg sync.WaitGroup
	for i, name := range toyDomains {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			ds, err := websyn.ParseDataset(name)
			if err != nil {
				errs[i] = err
				return
			}
			snap, err := websyn.MineSnapshot(ds, websyn.DefaultMinerConfig(), 0, 0)
			if err != nil {
				errs[i] = fmt.Errorf("mining %s: %w", name, err)
				return
			}
			c.Domains[i] = newDomainCorpus(name, snap)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	c.SHA = corpusSHA(c.Domains)
	return c, nil
}

// newDomainCorpus derives the generator's view of a mined snapshot.
func newDomainCorpus(name string, snap *serve.Snapshot) *domainCorpus {
	d := &domainCorpus{Name: name, Snap: snap, Phrases: attributePhrases(snap.Vocab)}
	snap.Dict.ForEach(func(text string, entries []match.Entry) {
		for _, e := range entries[1:] {
			if e.EntityID != entries[0].EntityID {
				return
			}
		}
		d.Sources = append(d.Sources, source{text, entries[0].EntityID})
	})
	return d
}

// buildScale generates the scale tier and compiles it the way dictbuild
// compiles a mined one: dictionary, packed trigram index, entity table.
func buildScale(seed uint64, entities int) *corpus {
	ents := genScale(seed, entities)
	dict := match.NewDictionary()
	canon := make([]string, len(ents))
	syn := make(map[string][]string, len(ents))
	for id, e := range ents {
		canon[id] = e.Strings[0]
		for i, s := range e.Strings {
			src := "mined"
			if i == 0 {
				src = "canonical"
			}
			dict.Add(s, match.Entry{EntityID: id, Score: scaleScores[i], Source: src})
		}
		syn[e.Strings[0]] = e.Strings[1:]
	}
	snap := &serve.Snapshot{
		Dataset:    "Scale",
		MinSim:     websyn.DefaultFuzzyMinSim,
		Canonicals: canon,
		Synonyms:   syn,
		Dict:       dict,
		Fuzzy:      dict.NewFuzzyIndex(websyn.DefaultFuzzyMinSim).Packed(),
	}
	// Queries come from a bounded slice of the catalogue, never all of it.
	c := &corpus{Tier: tierScale, Domains: []*domainCorpus{{Name: scaleDomain, Snap: snap, Sources: scaleSources(ents, 0, scaleQuerySlice)}}}
	c.SHA = corpusSHA(c.Domains)
	return c
}

// scaleQuerySlice is the number of leading scale entities queries are
// generated from.
const scaleQuerySlice = 4000

func corpusSHA(domains []*domainCorpus) string {
	h := sha256.New()
	for _, d := range domains {
		fmt.Fprintf(h, "# %s\n", d.Name)
		for _, s := range d.Snap.Dict.Strings() {
			h.Write([]byte(s))
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// write stores every domain's snapshot under dir.
func (c *corpus) write(dir string) error {
	for _, d := range c.Domains {
		d.Path = filepath.Join(dir, d.Name+".snap")
		if err := d.Snap.WriteFile(d.Path); err != nil {
			return fmt.Errorf("writing %s: %w", d.Path, err)
		}
	}
	return nil
}

// checkIntents verifies the generator's by-construction guarantee on
// this corpus: no intent word is a dictionary token or within one edit of
// one, so typo correction can never pull an intent into an entity span.
func (c *corpus) checkIntents() error {
	for _, d := range c.Domains {
		var bad error
		seen := map[string]bool{}
		d.Snap.Dict.ForEach(func(text string, _ []match.Entry) {
			for _, tok := range strings.Fields(text) {
				if seen[tok] {
					continue
				}
				seen[tok] = true
				if nearIntent(tok) {
					bad = fmt.Errorf("%s: dictionary token %q is within one edit of an intent word", d.Name, tok)
				}
			}
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}

// attributePhrases derives attribute-shaped fragments from a domain's
// mined vocabulary — a band token ("cheap"), a comparator phrase ("under
// 450"), a discrete value ("2008"), two categorical values ("canon") —
// so the attributes class reaches every predicate family /v2 parses.
func attributePhrases(v *rewrite.Vocabulary) []string {
	if v == nil {
		return nil
	}
	var out []string
	for _, nc := range v.Numeric {
		if len(nc.Bands) > 0 {
			out = append(out, nc.Bands[0].Token)
		}
		if len(nc.Comparators) > 0 {
			out = append(out, fmt.Sprintf("%s %d", nc.Comparators[0].Token, int((nc.Min+nc.Max)/2)))
		}
		if len(nc.Values) > 0 {
			out = append(out, fmt.Sprintf("%d", int(nc.Values[0])))
		}
	}
	for _, cc := range v.Categorical {
		vals := append([]string(nil), cc.Values...)
		sort.Strings(vals)
		if len(vals) > 2 {
			vals = vals[:2]
		}
		out = append(out, vals...)
	}
	return out
}
