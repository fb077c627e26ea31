package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"websyn/internal/match"
	"websyn/internal/serve"
)

// clients is the closed-loop client count: one keep-alive connection
// each, equal to the core count the benchmark is sized for. The callers
// of this tier are front ends that wait for the reply, and with as many
// connections as cores an open loop would only measure its own queue.
const clients = 2

// windows is the number of back-to-back measuring windows a run is cut
// into; every reported value is the median over them.
const windows = 3

// checkEvery is the share of responses decoded and compared in full.
const checkEvery = 16

// federatedEvery flips one routed toy query in this many to a fan-out
// across every domain.
const federatedEvery = 8

// scaleFuzzyEvery is the share of scale-tier sources that also yield a
// typo and a span-fuzzy query.
const scaleFuzzyEvery = 3

// batchSize is the items per POST on the batch workload.
const batchSize = 64

// workload is one traffic mix against one server topology.
type workload struct {
	Name string
	Tier string
	// Batch is the items per POST (1 = one query per request).
	Batch int
	// Fleet runs router + 2 replicas instead of one matchd.
	Fleet bool
	// Zipf draws queries Zipf(1.0) by rank instead of cycling through
	// them, so a cache sees a hot set.
	Zipf bool
}

var workloads = []*workload{
	{
		Name: "single_toy", Tier: tierToy, Batch: 1,
	},
	{
		Name: "batch_toy", Tier: tierToy, Batch: batchSize,
	},
	{
		Name: "scale_uncached", Tier: tierScale, Batch: 1,
	},
	{
		Name: "fleet_cached", Tier: tierScale, Batch: 1, Fleet: true, Zipf: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// sizes are the knobs that differ between a full run and -quick.
type sizes struct {
	ScaleEntities int // x5 dictionary strings
	ToySources    int // sampled dictionary strings per toy domain
	ScaleQueries  int // distinct queries on scale_uncached
	FleetQueries  int // distinct queries on fleet_cached: 1.25x FleetCache
	FleetCache    int // -cache of each fleet replica
	MinWindow     int // a window with fewer POSTs fails the run
	LadderQueries int // queries replayed per ladder rung
	SetupReps     int // set-ups per run; setup_s and boot_s are the medians
}

var (
	fullSizes  = sizes{ScaleEntities: 60000, ToySources: 400, ScaleQueries: 512, FleetQueries: 640, FleetCache: 512, MinWindow: 1000, LadderQueries: 256, SetupReps: 3}
	quickSizes = sizes{ScaleEntities: 4000, ToySources: 60, ScaleQueries: 128, FleetQueries: 160, FleetCache: 128, MinWindow: 20, LadderQueries: 128, SetupReps: 1}
)

// request is one pre-encoded POST.
type request struct {
	Path  string
	Body  []byte
	Items []int // query indexes, in body order
}

// backend is the in-process form of what the servers run: both
// *serve.Server and *serve.Registry.
type backend interface {
	DoItem(it match.Request, domains []string) serve.V1Result
	Handler() http.Handler
}

// prepared is a workload set up and ready to measure.
type prepared struct {
	W        *workload
	Dir      string
	Corpus   *corpus
	Answers  *answerSet
	Requests []request
	Target   string   // base URL the clients POST to
	Servers  []*child // every process: matchd(s), then the router if any
	Replicas []*child // the matchd processes
	FleetTo  string   // one replica's wire address (traced runs only)
	SetupS   float64
	BootS    float64
}

// teardown stops the servers and removes the workload's directory.
func (p *prepared) teardown() {
	for _, c := range p.Servers {
		c.stop()
	}
	os.RemoveAll(p.Dir)
}

// setup prepares w from nothing: corpus, snapshot files, servers,
// queries, expected answers, warm-up. withWire adds a -fleet-addr
// listener to non-fleet servers so a traced run can time the wire hop.
func setup(w *workload, root, bin string, seed uint64, sz sizes, withWire bool) (p *prepared, err error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(filepath.Join(root, buildDir, "tmp"), w.Name+"-")
	if err != nil {
		return nil, err
	}
	p = &prepared{W: w, Dir: dir}
	defer func() {
		if err != nil {
			p.teardown()
			p = nil
		}
	}()

	if w.Tier == tierToy {
		if p.Corpus, err = mineToy(); err != nil {
			return p, err
		}
		if err = p.Corpus.checkIntents(); err != nil {
			return p, err
		}
	} else {
		p.Corpus = buildScale(seed, sz.ScaleEntities)
	}
	if err = p.Corpus.write(dir); err != nil {
		return p, err
	}
	if err = p.boot(bin, sz, withWire); err != nil {
		return p, err
	}

	queries := genQueries(w, p.Corpus, seed, sz)
	be, err := openBackend(w, p.Corpus)
	if err != nil {
		return p, err
	}
	p.Answers = expectedAnswers(be, queries)
	p.Requests = encodeRequests(w, queries)

	// Warm-up: one full pass over the distinct requests, discarded.
	order := make([]int, len(p.Requests))
	for i := range order {
		order[i] = i
	}
	res, err := runLoad(p, func(c int) picker { return &cycle{order: order, pos: c, step: clients, once: true} }, 0)
	if err != nil {
		return p, err
	}
	if res.Failed > 0 {
		return p, fmt.Errorf("%s: %d of %d warm-up queries failed", w.Name, res.Failed, res.Attempted)
	}
	p.SetupS = time.Since(t0).Seconds()
	return p, nil
}

// boot starts the workload's servers on fresh ports.
func (p *prepared) boot(bin string, sz sizes, withWire bool) error {
	matchd := filepath.Join(bin, "matchd")
	startMatchd := func(name string, args ...string) (*child, string, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, "", err
		}
		args = append(args, "-addr", addr)
		wireAddr := ""
		if withWire || p.W.Fleet {
			if wireAddr, err = freeAddr(); err != nil {
				return nil, "", err
			}
			args = append(args, "-fleet-addr", wireAddr)
		}
		c, err := startChild(name, matchd, filepath.Join(p.Dir, name+".log"), args...)
		if err != nil {
			return nil, "", err
		}
		c.URL = "http://" + addr
		p.Servers = append(p.Servers, c)
		p.Replicas = append(p.Replicas, c)
		return c, wireAddr, nil
	}
	switch {
	case p.W.Fleet:
		d := p.Corpus.Domains[0]
		routerArgs := []string{}
		for i := 0; i < 2; i++ {
			c, wireAddr, err := startMatchd(fmt.Sprintf("replica%d", i),
				"-snapshot", d.Name+"="+d.Path, "-mmap", "-cache", strconv.Itoa(sz.FleetCache))
			if err != nil {
				return err
			}
			routerArgs = append(routerArgs, "-replica", wireAddr+"="+c.URL)
			p.FleetTo = wireAddr
		}
		for _, c := range p.Replicas {
			if err := c.awaitHealthy(60 * time.Second); err != nil {
				return err
			}
			p.BootS = max(p.BootS, c.BootS)
		}
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		rt, err := startChild("router", filepath.Join(bin, "router"), filepath.Join(p.Dir, "router.log"), append(routerArgs, "-addr", addr)...)
		if err != nil {
			return err
		}
		rt.URL = "http://" + addr
		p.Servers = append(p.Servers, rt)
		p.Target = rt.URL
		return rt.awaitHealthy(30 * time.Second)
	case p.W.Tier == tierToy:
		args := []string{"-cache", "-1"}
		for _, d := range p.Corpus.Domains {
			args = append(args, "-snapshot", d.Name+"="+d.Path)
		}
		c, wireAddr, err := startMatchd("matchd", args...)
		if err != nil {
			return err
		}
		p.Target, p.FleetTo = c.URL, wireAddr
		if err := c.awaitHealthy(60 * time.Second); err != nil {
			return err
		}
		p.BootS = c.BootS
	default:
		c, wireAddr, err := startMatchd("matchd", "-snapshot", p.Corpus.Domains[0].Path, "-mmap", "-cache", "-1")
		if err != nil {
			return err
		}
		p.Target, p.FleetTo = c.URL, wireAddr
		if err := c.awaitHealthy(60 * time.Second); err != nil {
			return err
		}
		p.BootS = c.BootS
	}
	return nil
}

// genQueries builds w's distinct queries from its corpus, seeded.
func genQueries(w *workload, c *corpus, seed uint64, sz sizes) []query {
	r := newRNG(seed).fork("queries/" + w.Tier)
	var qs []query
	if w.Tier == tierToy {
		for _, d := range c.Domains {
			dr := r.fork(d.Name)
			qs = append(qs, queriesFor(dr, d.Name, pickSources(dr, d.Sources, sz.ToySources), d.Phrases, 1)...)
			qs = append(qs, noiseFor(d.Name)...)
		}
		r.shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		for i := federatedEvery - 1; i < len(qs); i += federatedEvery {
			qs[i].Domain = federated
		}
		return qs
	}
	d := c.Domains[0]
	n, route := sz.ScaleQueries, ""
	if w.Fleet {
		n, route = sz.FleetQueries, d.Name
	}
	// Well-formed queries outnumber misspelt ones three to one, as in a
	// real log. That also keeps the median request in the exact class,
	// whose cost is a property of the dictionary; a typo's cost depends on
	// where the program's map-ordered vocabulary scan happens to stop.
	// Five queries per three sources, cut to n less the noise list before
	// anything is shuffled: every seed sends the same number of each class,
	// so the tail percentile always falls among the same kind of query.
	qs = queriesFor(r, route, pickSources(r, d.Sources, n*3/5+1), nil, scaleFuzzyEvery)
	if keep := n - len(noiseQueries); len(qs) > keep {
		qs = qs[:keep]
	}
	qs = append(qs, noiseFor(route)...)
	r.shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	for i := range qs {
		qs[i].SrcDomain = d.Name
	}
	return qs
}

// openBackend builds, through the public Go API and with the cache off,
// the same serving shape w's servers run.
func openBackend(w *workload, c *corpus) (backend, error) {
	cfg := serve.Config{CacheSize: -1}
	if w.Tier == tierScale && !w.Fleet {
		return serve.NewServer(c.Domains[0].Snap, cfg), nil
	}
	reg := serve.NewRegistry(cfg)
	for _, d := range c.Domains {
		if _, err := reg.Add(d.Name, d.Snap, serve.SnapshotMeta{}); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// matchRequest is the item the program sees for q.
func matchRequest(q query) (match.Request, []string) {
	req := match.Request{Query: q.Text, Rewrite: q.V2()}
	if q.Domain == federated {
		return req, []string{federated}
	}
	req.Domain = q.Domain
	return req, nil
}

// expectedAnswers computes every query's answer in-process before the
// run, on all cores the harness has.
func expectedAnswers(be backend, queries []query) *answerSet {
	a := &answerSet{Queries: queries, Expected: make([][]byte, len(queries)), Resolved: make([]bool, len(queries))}
	var wg sync.WaitGroup
	n := runtime.GOMAXPROCS(0)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(queries); i += n {
				req, domains := matchRequest(queries[i])
				res := be.DoItem(req, domains)
				a.Expected[i] = canonical(res)
				a.Resolved[i] = resolves(queries[i], res)
			}
		}(g)
	}
	wg.Wait()
	return a
}

// wireItem is the JSON form of one query.
type wireItem struct {
	Query  string `json:"query"`
	Domain string `json:"domain,omitempty"`
}

type wireBody struct {
	*wireItem
	Queries []wireItem `json:"queries,omitempty"`
	Domains []string   `json:"domains,omitempty"`
}

func endpoint(q query) string {
	if q.V2() {
		return "/v2/match"
	}
	return "/v1/match"
}

// encodeRequests turns the queries into POST bodies: one per query, or —
// for a batch workload — groups of w.Batch that are homogeneous by
// endpoint and routing mode (the fan-out list is a batch-level field).
func encodeRequests(w *workload, queries []query) []request {
	var out []request
	emit := func(path string, body wireBody, items []int) {
		b, err := json.Marshal(body)
		if err != nil {
			panic(err) // strings only: cannot fail
		}
		out = append(out, request{Path: path, Body: b, Items: items})
	}
	item := func(q query) wireItem {
		req, _ := matchRequest(q)
		return wireItem{Query: req.Query, Domain: req.Domain}
	}
	fan := func(q query) []string {
		_, domains := matchRequest(q)
		return domains
	}
	if w.Batch <= 1 {
		for i, q := range queries {
			it := item(q)
			emit(endpoint(q), wireBody{wireItem: &it, Domains: fan(q)}, []int{i})
		}
		return out
	}
	type group struct {
		path string
		fed  bool
	}
	pending := map[group][]int{}
	var order []group
	for i, q := range queries {
		g := group{endpoint(q), q.Domain == federated}
		if _, ok := pending[g]; !ok {
			order = append(order, g)
		}
		pending[g] = append(pending[g], i)
	}
	for _, g := range order {
		idx := pending[g]
		// A short tail batch would be a different request shape; wrap
		// around so every POST carries exactly w.Batch items.
		for off := 0; off < len(idx); off += w.Batch {
			items := make([]int, w.Batch)
			body := wireBody{Queries: make([]wireItem, w.Batch)}
			for k := range items {
				items[k] = idx[(off+k)%len(idx)]
				body.Queries[k] = item(queries[items[k]])
			}
			body.Domains = fan(queries[items[0]])
			emit(g.path, body, items)
		}
	}
	return out
}
