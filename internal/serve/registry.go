package serve

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"websyn/internal/match"
)

// Registry is the request surface of the serving tier: the one set of
// HTTP handlers, the match routing, and the v1/v2 meters, over one or
// more domains. Each registered domain owns a complete Server — its own
// generation handle (dictionary, fuzzy index, engine, entity table,
// request cache) and, via internal/serve/reload, its own snapshot
// watcher — so movies can hot-swap a new dictionary while cameras keeps
// serving, and a reload failure in one vertical cannot touch another.
//
// Request routing on POST /v1/match and /v2/match:
//
//   - "domain": "movies" — exact route to that domain; the response is
//     stamped with the domain that answered.
//   - "domains": ["movies", "cameras"] or ["*"] — fan the query out
//     across the named (or all) domains in parallel and merge the span
//     matches by score into one federated response, every match carrying
//     its domain of origin.
//   - neither field — fan out across every registered domain. With a
//     single registered domain this degenerates to an unstamped exact
//     route, which is how single-snapshot deployments keep their
//     byte-identical responses.
//
// A request pins every domain to the generation live when it arrived
// (see pin), so all items of a batch — exact routes and federated legs
// alike — are answered by one consistent dictionary per domain.
//
// The legacy endpoints (GET /match, POST /match/batch, GET /fuzzy,
// GET /synonyms) route to the default domain, or to ?domain=<name> when
// given. Domains are registered at boot, before Mount; the set is
// immutable while serving (per-domain snapshots hot-swap inside their
// Server instead).
//
// The standalone shape — the private registry behind NewServer, its one
// domain unnamed — is the same code path with a single dictionary's
// manners: domain routing is refused, and /statsz and /admin/snapshot
// are that domain's flat Stats and SnapshotInfo. It is not settable: a
// registry from NewRegistry never has it.
type Registry struct {
	cfg        Config
	workers    int // batch and fan-out pool size: GOMAXPROCS at construction
	start      time.Time
	domains    map[string]*Server
	names      []string // registration order — the deterministic fan-out order
	def        string
	standalone bool

	api     [2]meters // indexed by apiVersion
	fanouts atomic.Uint64

	// fedPool recycles the per-request scratch of federated fan-outs
	// (see fedScratch), so steady-state federation does not allocate
	// bookkeeping per query.
	fedPool sync.Pool
}

// apiVersion is the whole difference between POST /v1/match and
// /v2/match: the Rewrite switch and the meters a request is counted on.
type apiVersion int

const (
	v1 apiVersion = iota
	v2
)

// meters are one API version's request counters.
type meters struct {
	reqs    atomic.Uint64
	queries atomic.Uint64
	lat     latencyRecorder
}

// NewRegistry returns an empty registry; cfg applies to every domain
// Server subsequently built by Add, and to the registry's own batch
// fan-out pool.
func NewRegistry(cfg Config) *Registry {
	reg := &Registry{
		cfg:     cfg.withDefaults(),
		workers: runtime.GOMAXPROCS(0),
		start:   time.Now(),
		domains: make(map[string]*Server),
	}
	reg.fedPool.New = func() any { return new(fedScratch) }
	return reg
}

// validDomainName rejects names the routing grammar reserves: "*" is
// the fan-out wildcard, '=' and ',' are flag syntax, and
// whitespace would make URLs and logs ambiguous.
func validDomainName(name string) error {
	if name == "" {
		return fmt.Errorf("serve: empty domain name")
	}
	if name == "*" || strings.ContainsAny(name, "=, \t\n") {
		return fmt.Errorf("serve: invalid domain name %q (no '*', '=', ',' or whitespace)", name)
	}
	return nil
}

// Add builds a Server for one domain from its snapshot and registers it.
// The first domain added becomes the default (see SetDefault). Not safe
// to call once the registry is serving.
func (reg *Registry) Add(name string, snap *Snapshot, meta SnapshotMeta) (*Server, error) {
	if err := validDomainName(name); err != nil {
		return nil, err
	}
	if _, dup := reg.domains[name]; dup {
		return nil, fmt.Errorf("serve: domain %q registered twice", name)
	}
	if snap == nil || snap.Dict == nil {
		return nil, fmt.Errorf("serve: domain %q: nil snapshot", name)
	}
	return reg.add(name, snap, meta)
}

// add is Add without the name grammar: NewServer registers its one
// domain under the empty name, which no request can spell.
func (reg *Registry) add(name string, snap *Snapshot, meta SnapshotMeta) (*Server, error) {
	srv := &Server{reg: reg}
	g, err := srv.Prepare(snap, meta)
	if err != nil {
		return nil, err
	}
	g.g.id = 1
	g.g.loadedAt = time.Now()
	srv.gen.Store(g.g)
	reg.domains[name] = srv
	reg.names = append(reg.names, name)
	if len(reg.names) == 1 {
		reg.def = name
	}
	return srv, nil
}

// SetDefault names the domain legacy (domainless) endpoints route to.
func (reg *Registry) SetDefault(name string) error {
	if _, ok := reg.domains[name]; !ok {
		return fmt.Errorf("serve: default domain %q not registered (have %s)", name, strings.Join(reg.names, ", "))
	}
	reg.def = name
	return nil
}

// Domain returns the named domain's server.
func (reg *Registry) Domain(name string) (*Server, bool) {
	s, ok := reg.domains[name]
	return s, ok
}

// Default returns the default domain's server (nil before the first Add).
func (reg *Registry) Default() *Server { return reg.domains[reg.def] }

// DefaultName returns the default domain's name.
func (reg *Registry) DefaultName() string { return reg.def }

// Names returns the registered domain names in registration order.
func (reg *Registry) Names() []string {
	return append([]string(nil), reg.names...)
}

// unknownDomain is the error every surface reports for a name that is
// not registered.
func (reg *Registry) unknownDomain(name string) error {
	return fmt.Errorf("unknown domain %q (registered: %s)", name, strings.Join(reg.names, ", "))
}

// target is one domain pinned for the life of a request: the server and
// the generation it was serving when the request arrived.
type target struct {
	name string
	srv  *Server
	gen  *generation
}

// do answers one item on the pinned generation.
func (t *target) do(it match.Request) (match.Response, bool, error) {
	t.srv.routedQueries.Add(1)
	return t.srv.doGen(t.gen, it)
}

// route is one request's resolved routing. all is every domain in
// registration order, pinned — what an item's own domain field picks an
// exact route from; fan is the subset the other items fan out across
// (all itself unless the request named domains). explicit records that
// the client named domains — a single-target fan-out only stamps
// provenance then, so domainless traffic against a single-domain
// registry stays byte-identical to a standalone server.
type route struct {
	all, fan []target
	explicit bool
}

// byName returns the pinned domain of that name, or nil.
func (rt route) byName(name string) *target {
	for i := range rt.all {
		if rt.all[i].name == name {
			return &rt.all[i]
		}
	}
	return nil
}

// pin resolves the routing of a request for items and loads every
// domain's generation, once: whatever Install lands later, the request
// keeps answering from the dictionaries it started with. domains is the
// fan-out list: empty or "*" means every domain, duplicates collapse
// (first occurrence keeps its position), unknown names are an error.
func (reg *Registry) pin(domains []string, items ...match.Request) (route, error) {
	if reg.standalone {
		// One dictionary: a request naming domains expects behaviour this
		// deployment cannot provide, so fail loud instead of silently
		// answering from the wrong (only) domain.
		const hint = "requires a multi-domain server (matchd -snapshot name=path)"
		if len(domains) > 0 {
			return route{}, errors.New("domains " + hint)
		}
		for i := range items {
			if d := items[i].Domain; d != "" {
				return route{}, fmt.Errorf("domain %q: domain routing %s", d, hint)
			}
		}
	}
	all := make([]target, len(reg.names))
	for i, n := range reg.names {
		srv := reg.domains[n]
		//websyn:ignore genhandle request-scoped by design: the pin dies with the response, so it cannot outlast an Install the way a cached handle would
		all[i] = target{name: n, srv: srv, gen: srv.gen.Load()}
	}
	rt := route{all: all, fan: all, explicit: len(domains) > 0}
	if !rt.explicit {
		return rt, nil
	}
	rt.fan = make([]target, 0, len(all))
	picked := make([]bool, len(all))
	for _, n := range domains {
		if n != "*" && rt.byName(n) == nil {
			return route{}, reg.unknownDomain(n)
		}
		for i := range all {
			if (n == "*" || n == all[i].name) && !picked[i] {
				picked[i] = true
				rt.fan = append(rt.fan, all[i])
			}
		}
	}
	if len(rt.fan) == 0 {
		return route{}, errors.New("domains resolves to no domain")
	}
	return rt, nil
}

// Handler returns the registry's HTTP API (see Mount).
func (reg *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	reg.Mount(mux)
	return mux
}

// Mount registers the HTTP API on an existing mux, so callers composing
// extra routes (the reload admin surface) share one router:
//
//	POST /v1/match           — unified match API: single + batch, all
//	                           modes, explain traces, domain-routed and
//	                           federated matching (see docs/API.md)
//	POST /v2/match           — v1 plus attribute predicates + residual
//	GET  /match?q=           — deprecated: default domain (or ?domain=<name>)
//	POST /match/batch        — deprecated: default domain (or ?domain=<name>)
//	GET  /fuzzy?q=           — deprecated: default domain (or ?domain=<name>)
//	GET  /synonyms?u=        — legacy: default domain (or ?domain=<name>)
//	GET  /statsz             — registry counters + per-domain stats
//	GET  /admin/snapshot     — all domains' provenance (or ?domain=<name>)
//	GET  /healthz            — liveness
//
// The pre-v1 adapters are mounted behind the deprecation shim: same
// bytes, plus Deprecation/Sunset headers pointing clients at the
// versioned surface. POST /admin/reload and GET /admin/reload/status are
// served by the reload subsystem; see internal/serve/reload.
func (reg *Registry) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/match", reg.handleMatch(v1))
	mux.HandleFunc("POST /v2/match", reg.handleMatch(v2))
	mux.HandleFunc("GET /match", deprecated(reg.delegate((*Server).handleMatch)))
	mux.HandleFunc("POST /match/batch", deprecated(reg.delegate((*Server).handleBatch)))
	mux.HandleFunc("GET /fuzzy", deprecated(reg.delegate((*Server).handleFuzzy)))
	mux.HandleFunc("GET /synonyms", reg.delegate((*Server).handleSynonyms))
	mux.HandleFunc("GET /statsz", reg.handleStatsz)
	mux.HandleFunc("GET /admin/snapshot", reg.handleAdminSnapshot)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if _, err := io.WriteString(w, "ok\n"); err != nil {
			log.Printf("serve: writing response: %v", err)
		}
	})
}

// delegate wraps a per-domain handler with ?domain= resolution,
// defaulting to the default domain — the legacy endpoints' multi-domain
// story. The standalone shape has no names and ignores the parameter.
func (reg *Registry) delegate(h func(*Server, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		srv := reg.Default()
		if name := r.URL.Query().Get("domain"); name != "" && !reg.standalone {
			if srv = reg.domains[name]; srv == nil {
				http.Error(w, reg.unknownDomain(name).Error(), http.StatusNotFound)
				return
			}
		}
		h(srv, w, r)
	}
}

// handleMatch is POST /v1/match and POST /v2/match.
func (reg *Registry) handleMatch(ver apiVersion) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		items, domains, ok := ParseV1(w, r, reg.cfg.MaxBatch, ver == v2)
		if !ok {
			return
		}
		rt, err := reg.pin(domains, items...)
		if err != nil {
			WriteV1Error(w, http.StatusBadRequest, "%s", err)
			return
		}
		m := &reg.api[ver]
		m.reqs.Add(1)
		m.queries.Add(uint64(len(items)))
		t0 := time.Now()
		results := make([]V1Result, len(items))
		runPool(reg.workers, len(items), func(i int) {
			results[i] = reg.routeItem(rt, items[i])
		})
		m.lat.observe(time.Since(t0))
		writeJSON(w, V1Response{Count: len(results), Results: results})
	}
}

// DoItem answers one routed match item programmatically — the entry
// point the fleet wire protocol calls into. domains is the item's
// fan-out list (nil or empty = every registered domain), with the same
// grammar as the HTTP field: names or "*". Routing errors are per-item,
// worded as the HTTP surface words them. The returned response may share
// slices with the request cache: read-only.
func (reg *Registry) DoItem(it match.Request, domains []string) V1Result {
	rt, err := reg.pin(domains, it)
	if err != nil {
		return V1Result{Error: err.Error()}
	}
	return reg.routeItem(rt, it)
}

// routeItem answers one item on a pinned route: an item naming a domain
// takes an exact (stamped) route, a single-target fan degenerates to one
// route, anything else federates.
func (reg *Registry) routeItem(rt route, it match.Request) V1Result {
	if it.Domain != "" {
		t := rt.byName(it.Domain)
		if t == nil {
			return V1Result{Error: reg.unknownDomain(it.Domain).Error()}
		}
		return routeOne(t, it, true)
	}
	if len(rt.fan) == 1 {
		return routeOne(&rt.fan[0], it, rt.explicit)
	}
	return reg.federate(rt.fan, it)
}

// routeOne answers one item on one domain. stamp marks the response with
// the domain that answered; it is false only for domainless traffic on a
// single-domain registry, where legacy byte-identity is the contract.
// Stamping mutates only the response value copy, never cache-shared
// slices, so the cached response stays domain-neutral.
func routeOne(t *target, it match.Request, stamp bool) V1Result {
	res, cached, err := t.do(it)
	if err != nil {
		return V1Result{Error: err.Error()}
	}
	if stamp {
		res.Domain = t.name
	}
	return V1Result{Response: &res, Cached: cached}
}

// fedLeg is one domain's answer inside a federated fan-out. The
// response may share slices with that domain's request cache:
// read-only.
type fedLeg struct {
	res    match.Response
	cached bool
	err    error
}

// fedScratch is the pooled per-request bookkeeping of a federated
// fan-out. It is cleared before going back to the pool so a parked
// scratch never pins a retired generation's cached responses.
type fedScratch struct {
	legs []fedLeg
}

// inlineFanout is the fan-out width up to which federate runs the legs
// inline on the calling worker instead of dispatching to the pool: a
// cached per-domain match is about a microsecond, far below the cost of
// waking pool workers, and the caller is already one of the batch
// pool's workers (handleMatch fans items out through runPool).
const inlineFanout = 4

// federate fans one item out across the targets and merges the
// per-domain responses into one: span matches from every domain,
// ordered by score (best evidence first, regardless of vertical), each
// stamped with the domain that produced it. The federated remainder is
// the winning domain's — the leftover text as seen by the vertical with
// the strongest match — or the full query when nothing matched anywhere.
//
// Domain stamping happens while copying each leg's matches into the
// merged response, so the per-domain responses — which may be shared
// with their domain's request cache — are never written to, and the old
// detach-then-stamp double copy is gone. Per-query bookkeeping (the leg
// table) comes from the registry's scratch pool.
func (reg *Registry) federate(targets []target, it match.Request) V1Result {
	reg.fanouts.Add(1)
	t0 := time.Now()
	fs := reg.fedPool.Get().(*fedScratch)
	legs := fs.legs
	if cap(legs) < len(targets) {
		legs = make([]fedLeg, len(targets))
	} else {
		legs = legs[:len(targets)]
	}
	defer func() {
		clear(legs)
		fs.legs = legs[:0]
		reg.fedPool.Put(fs)
	}()

	if len(targets) <= inlineFanout {
		for i := range targets {
			legs[i].res, legs[i].cached, legs[i].err = targets[i].do(it)
		}
	} else {
		runPool(reg.workers, len(targets), func(i int) {
			legs[i].res, legs[i].cached, legs[i].err = targets[i].do(it)
		})
	}

	// Request validation is domain-independent: an invalid item fails
	// identically everywhere, so the first leg's error speaks for all.
	for i := range legs {
		if legs[i].err != nil {
			return V1Result{Error: legs[i].err.Error()}
		}
	}

	out := match.Response{Query: legs[0].res.Query}
	nMatches, nTrace := 0, 0
	for i := range legs {
		nMatches += len(legs[i].res.Matches)
		nTrace += len(legs[i].res.Trace)
	}
	if nMatches > 0 {
		out.Matches = make([]match.SpanMatch, 0, nMatches)
	}
	if nTrace > 0 {
		out.Trace = make([]match.TraceStep, 0, nTrace)
	}
	allCached := true
	for i := range legs {
		leg := &legs[i]
		name := targets[i].name
		mb := len(out.Matches)
		out.Matches = append(out.Matches, leg.res.Matches...)
		for j := mb; j < len(out.Matches); j++ {
			out.Matches[j].Domain = name
		}
		tb := len(out.Trace)
		out.Trace = append(out.Trace, leg.res.Trace...)
		for j := tb; j < len(out.Trace); j++ {
			out.Trace[j].Domain = name
		}
		out.Timing.SegmentMicros += leg.res.Timing.SegmentMicros
		out.Timing.FuzzyMicros += leg.res.Timing.FuzzyMicros
		allCached = allCached && leg.cached
	}
	sort.SliceStable(out.Matches, func(i, j int) bool {
		a, b := out.Matches[i], out.Matches[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Similarity != b.Similarity {
			return a.Similarity > b.Similarity
		}
		if a.Domain != b.Domain {
			return a.Domain < b.Domain
		}
		return a.Start < b.Start
	})
	// Attributes and residual follow the remainder rule: the winning
	// domain — the vertical that produced the best span match — speaks
	// for the structured part of the query too. Predicates from the
	// other verticals' vocabularies are dropped, never merged: "2008"
	// must not surface as a camera price band just because the cameras
	// domain also ran. With no match anywhere, the first fan-out target
	// (the default domain on an implicit fan) answers.
	winner := 0
	if len(out.Matches) > 0 {
		for i := range targets {
			if targets[i].name == out.Matches[0].Domain {
				winner = i
				break
			}
		}
	}
	out.Remainder = legs[winner].res.Remainder
	if attrs := legs[winner].res.Attributes; len(attrs) > 0 {
		out.Attributes = make([]match.Predicate, len(attrs))
		copy(out.Attributes, attrs)
		for j := range out.Attributes {
			out.Attributes[j].Domain = targets[winner].name
		}
	}
	out.Residual = legs[winner].res.Residual
	out.Timing.TotalMicros = float64(time.Since(t0).Nanoseconds()) / 1e3
	return V1Result{Response: &out, Cached: allCached}
}

// RegistryStats is the JSON shape of the registry's GET /statsz: the
// registry-level routing counters plus every domain's full Stats (each
// domain's cache, dictionary, generation and latency numbers are its
// own — a hot swap in one vertical resets only that vertical's cache
// stats).
type RegistryStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	DefaultDomain string  `json:"default_domain"`
	DomainCount   int     `json:"domain_count"`
	Requests      struct {
		// V1 counts POST /v1/match requests; V1Queries the items they
		// carried; FanoutQueries the items answered by a multi-domain
		// federated merge. V2/V2Queries count POST /v2/match traffic,
		// omitted (zero) until the first v2 request.
		V1            uint64 `json:"v1"`
		V1Queries     uint64 `json:"v1_queries"`
		V2            uint64 `json:"v2,omitempty"`
		V2Queries     uint64 `json:"v2_queries,omitempty"`
		FanoutQueries uint64 `json:"fanout_queries"`
	} `json:"requests"`
	Latency struct {
		V1 LatencyStats `json:"v1"`
		// V2 appears once /v2/match has served a request.
		V2 *LatencyStats `json:"v2,omitempty"`
	} `json:"latency"`
	Domains map[string]Stats `json:"domains"`
}

// Stats returns a point-in-time view of the registry and all domains.
func (reg *Registry) Stats() RegistryStats {
	var st RegistryStats
	st.UptimeSeconds = time.Since(reg.start).Seconds()
	st.DefaultDomain = reg.def
	st.DomainCount = len(reg.names)
	st.Requests.V1, st.Requests.V1Queries = reg.api[v1].reqs.Load(), reg.api[v1].queries.Load()
	st.Requests.V2, st.Requests.V2Queries = reg.api[v2].reqs.Load(), reg.api[v2].queries.Load()
	st.Requests.FanoutQueries = reg.fanouts.Load()
	st.Latency.V1, st.Latency.V2 = reg.latencyStats()
	st.Domains = make(map[string]Stats, len(reg.names))
	for name, srv := range reg.domains {
		st.Domains[name] = srv.Stats()
	}
	return st
}

// latencyStats snapshots the match-latency meters; v2 is nil (no /statsz
// key) until /v2/match has served a request.
func (reg *Registry) latencyStats() (LatencyStats, *LatencyStats) {
	l1 := reg.api[v1].lat.snapshot()
	if reg.api[v2].reqs.Load() == 0 {
		return l1, nil
	}
	l2 := reg.api[v2].lat.snapshot()
	return l1, &l2
}

// handleStatsz serves RegistryStats — or, in the standalone shape, the
// one domain's flat Stats.
func (reg *Registry) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	if reg.standalone {
		writeJSON(w, reg.Default().Stats())
		return
	}
	writeJSON(w, reg.Stats())
}

// SnapshotInfos returns every domain's live generation provenance.
func (reg *Registry) SnapshotInfos() map[string]SnapshotInfo {
	out := make(map[string]SnapshotInfo, len(reg.names))
	for name, srv := range reg.domains {
		out[name] = srv.SnapshotInfo()
	}
	return out
}

// handleAdminSnapshot serves all domains' provenance as a name-keyed
// map, or one SnapshotInfo: ?domain=<name>'s, or the standalone domain's.
func (reg *Registry) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	if reg.standalone || r.URL.Query().Get("domain") != "" {
		reg.delegate(func(srv *Server, w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, srv.SnapshotInfo())
		})(w, r)
		return
	}
	writeJSON(w, reg.SnapshotInfos())
}
