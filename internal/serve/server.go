package serve

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"websyn/internal/match"
	"websyn/internal/rewrite"
	"websyn/internal/textnorm"
)

// Config tunes a Server. The zero value picks sensible production
// defaults; see each field. The request cache is split into one lock
// stripe per CPU (see cacheShardCount), batches fan out on GOMAXPROCS
// workers, and the Dice-similarity threshold is the snapshot's own.
type Config struct {
	// CacheSize is the request-cache capacity in entries (across all
	// shards). 0 means DefaultCacheSize; negative disables caching.
	CacheSize int
	// MaxBatch is the largest number of queries one batch request may
	// carry (legacy /match/batch and /v1/match alike). 0 means
	// DefaultMaxBatch.
	MaxBatch int
}

// Defaults for Config's zero values.
const (
	DefaultCacheSize = 4096
	DefaultMaxBatch  = 1024
)

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	return c
}

// generation is everything the server derives from one snapshot: the
// compiled dictionary, the trigram fuzzy index, the engine over both,
// the entity/synonym tables, and the request cache (caches never
// outlive the dictionary they were computed against). A generation is
// immutable once installed; hot reload builds a new one off-thread and
// swaps the server's pointer, so every request is answered entirely by
// the generation it loaded first.
type generation struct {
	id         uint64 // 1 for the boot generation, +1 per swap
	dataset    string
	meta       SnapshotMeta
	buildDur   time.Duration
	loadedAt   time.Time
	dict       *match.Dictionary
	fuzzy      *match.FuzzyIndex
	engine     *match.Engine
	canonicals []string       // entity ID -> canonical string
	byNorm     map[string]int // canonical norm -> entity ID
	synonyms   map[string][]string
	cache      *requestCache
	// flight collapses concurrent identical cache misses into one
	// engine run. Like the cache it is generation-scoped: a stale
	// generation's in-flight result can never satisfy a request pinned
	// to a fresh one.
	flight flightGroup
	// scratch pools the per-request match arenas. It lives on the
	// generation, not the server, so a request pinned to an old
	// generation can never hand its scratch — and the engine-owned
	// strings a response aliases — to a request on a new one: arenas
	// retire with the dictionary they matched against.
	scratch sync.Pool // *match.Scratch
}

// SnapshotMeta records the provenance of an installed snapshot, for
// /admin/snapshot and operator logs. All fields are optional.
type SnapshotMeta struct {
	// Path is the snapshot file the state was loaded from; empty for
	// state mined in-process.
	Path string `json:"path,omitempty"`
	// SHA256 is the hex digest of the snapshot file bytes.
	SHA256 string `json:"sha256,omitempty"`
	// Version is the snapshot file layout version; 0 means the state
	// was built in-process (no file).
	Version int `json:"version,omitempty"`
}

// Generation is a fully built, not-yet-installed serving state: the
// output of Server.Prepare and the input of Server.Install. The reload
// subsystem validates one with canary queries (via Engine) before
// swapping it in.
type Generation struct {
	g *generation
}

// Engine returns the generation's match engine, for pre-install
// validation.
func (g *Generation) Engine() *match.Engine { return g.g.engine }

// Dataset returns the data-set name the generation was mined from.
func (g *Generation) Dataset() string { return g.g.dataset }

// Entities returns the size of the generation's entity table.
func (g *Generation) Entities() int { return len(g.g.canonicals) }

// Canonicals returns the generation's entity table (ID -> canonical
// string). Callers must treat it as read-only.
func (g *Generation) Canonicals() []string { return g.g.canonicals }

// Server is one domain of the online matching tier: one match.Engine
// over immutable dictionary state, plus a request cache and counters.
// Every endpoint — the versioned /v1 and /v2 match and the legacy /match,
// /match/batch and /fuzzy adapters — reaches the engine through
// Server.doGen. All methods are safe for concurrent use.
//
// The snapshot-derived state lives behind an atomic generation handle:
// Prepare builds a new generation from a fresh snapshot off the request
// path and Install swaps it in without dropping traffic (see
// internal/serve/reload for the watcher that drives this).
//
// A Server belongs to exactly one Registry, the request surface (HTTP
// handlers, routing, the v1/v2 meters): NewServer's private standalone
// one, or the named one Registry.Add attached it to.
type Server struct {
	reg *Registry // the surface this domain is mounted on; its Config is the domain's
	gen atomic.Pointer[generation]

	// Legacy-adapter meters (legacy.go).
	matchLat latencyRecorder
	batchLat latencyRecorder

	matchReqs    atomic.Uint64
	batchReqs    atomic.Uint64
	batchQueries atomic.Uint64
	fuzzyReqs    atomic.Uint64
	synReqs      atomic.Uint64
	// routedQueries counts queries the registry delivered to this domain
	// (exact routes and federated fan-out legs alike).
	routedQueries atomic.Uint64
}

// NewServer builds a standalone server: the sole, unnamed domain of a
// private registry in the single-dictionary shape (see Registry). When
// the snapshot embeds a packed fuzzy index the generation aliases its
// posting slabs; otherwise — version 1 snapshots, or mine-at-startup —
// the index is constructed from the dictionary here.
func NewServer(snap *Snapshot, cfg Config) *Server {
	return NewServerWithMeta(snap, cfg, SnapshotMeta{})
}

// NewServerWithMeta is NewServer recording where the boot snapshot came
// from (file path, SHA-256), so /admin/snapshot reports provenance from
// generation 1 instead of only after the first hot swap.
func NewServerWithMeta(snap *Snapshot, cfg Config, meta SnapshotMeta) *Server {
	reg := NewRegistry(cfg)
	reg.standalone = true
	s, err := reg.add("", snap, meta)
	if err != nil {
		// Only a nil snapshot/dictionary reaches here — a programming
		// error, not an input error.
		panic(err)
	}
	return s
}

// Prepare builds a complete serving generation from a snapshot — the
// expensive part of a reload (index assembly, entity-table indexing) —
// without touching the live state. Install swaps the result in. The
// returned generation carries meta for /admin/snapshot; a zero
// meta.Version falls back to the snapshot's own Version field.
func (s *Server) Prepare(snap *Snapshot, meta SnapshotMeta) (*Generation, error) {
	if snap == nil || snap.Dict == nil {
		return nil, fmt.Errorf("serve: nil snapshot")
	}
	if meta.Version == 0 {
		meta.Version = snap.Version
	}
	t0 := time.Now()
	var fuzzy *match.FuzzyIndex
	if snap.Fuzzy != nil {
		// The index aliases the snapshot's posting slabs — zero-copy, and
		// for an mmap-backed snapshot shared with the page cache.
		var err error
		if fuzzy, err = snap.Dict.NewFuzzyIndexFromPacked(snap.Fuzzy, snap.MinSim); err != nil {
			// A checksummed snapshot should never get here; fall back to
			// a clean rebuild (fuzzy is nil) rather than refusing to serve.
			log.Printf("serve: rebuilding fuzzy index, embedded one unusable: %v", err)
		}
	}
	if fuzzy == nil {
		fuzzy = snap.Dict.NewFuzzyIndex(snap.MinSim)
	}
	engine := match.NewEngine(snap.Dict, fuzzy, snap.Canonicals, snap.MinSim)
	if snap.Vocab != nil {
		// The attribute rewriter only runs on requests that opt in
		// (Rewrite, set by the /v2 surface), so attaching it cannot
		// change a /v1 response.
		engine.SetRewriter(rewrite.NewRewriter(snap.Vocab, snap.MinSim))
	}
	g := &generation{
		dataset:    snap.Dataset,
		meta:       meta,
		dict:       snap.Dict,
		fuzzy:      fuzzy,
		engine:     engine,
		canonicals: snap.Canonicals,
		byNorm:     make(map[string]int, len(snap.Canonicals)),
		synonyms:   snap.Synonyms,
		cache:      newRequestCache(s.reg.cfg.CacheSize, 0),
	}
	for id, c := range snap.Canonicals {
		g.byNorm[textnorm.Normalize(c)] = id
	}
	g.scratch.New = func() any { return match.NewScratch() }
	g.buildDur = time.Since(t0)
	return &Generation{g: g}, nil
}

// Install atomically swaps a prepared generation into the serving path.
// In-flight requests finish on the generation they started with; new
// requests see the new dictionary, engine and a fresh (empty) request
// cache. Install returns the new generation number.
func (s *Server) Install(g *Generation) uint64 {
	ng := g.g
	ng.loadedAt = time.Now()
	for {
		old := s.gen.Load()
		ng.id = old.id + 1 // not yet visible to readers: safe to set
		if s.gen.CompareAndSwap(old, ng) {
			return ng.id
		}
	}
}

// Generation returns the current generation number (1 at boot, +1 per
// Install) and the number of snapshot swaps performed since boot. The
// swap count is the generation number minus one — derived, so the two
// can never disagree.
func (s *Server) Generation() (id, swaps uint64) {
	id = s.gen.Load().id
	return id, id - 1
}

// Engine returns the current generation's match engine — the instance
// every endpoint routes through right now. Callers get uncached,
// unmetered access; across a hot reload a retained pointer goes stale,
// so long-lived callers should re-fetch per request.
func (s *Server) Engine() *match.Engine { return s.gen.Load().engine }

// appendRequestKey appends the cache key of a defaulted request to
// dst: every field that shapes the response, plus the normalized query
// (so "Indy 4" and "indy   4" share an entry; norm is the arena's
// space-joined token sequence). Append-style so the cache-hit fast
// path builds the key into a stack buffer with zero allocations — the
// cache and flight group borrow the bytes and copy only when they must
// retain them (a miss).
//
//websyn:hotpath
func appendRequestKey(dst []byte, req match.Request, norm string) []byte {
	dst = append(dst, string(req.Mode)...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(req.TopK), 10)
	dst = append(dst, '|')
	if req.MinSim == 0 {
		dst = append(dst, '0')
	} else {
		dst = strconv.AppendFloat(dst, req.MinSim, 'g', -1, 64)
	}
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(req.MaxSpanTokens), 10)
	dst = append(dst, '|')
	if req.Explain {
		dst = append(dst, 'e')
	}
	if req.Rewrite {
		// /v2 responses carry attributes; they must not share cache
		// entries with the /v1 shape of the same query.
		dst = append(dst, 'r')
	}
	dst = append(dst, '|')
	dst = append(dst, norm...)
	return dst
}

// doGenView answers one request on a pinned generation through the
// pooled match arena, passing the response to visit instead of
// returning it. The response is read-only and only valid during the
// visit call (it may alias the generation's scratch arena); stable
// reports whether it is instead backed by stable heap memory (a cache
// hit, or the clone made to populate the cache) that survives the call
// but still must not be mutated. visit runs at most once, before
// doGenView returns.
//
// This is the allocation-free steady state: with caching disabled, a
// request performs zero heap allocations end to end; with caching on, a
// hit builds its key in a stack buffer and allocates nothing, and the
// only per-miss allocations are the retained key copies and the one
// stable clone the cache keeps.
//
// Misses are collapsed through the generation's flight group: of K
// concurrent identical uncached requests, exactly one (the leader) runs
// the engine; the rest block until the leader publishes its clone and
// share it. The leader stores the clone in the cache before finishing,
// so a request arriving after the flight ends hits the cache instead of
// starting a new run.
//
//websyn:hotpath
func (s *Server) doGenView(g *generation, req match.Request, visit func(res *match.Response, cached, stable bool)) error {
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		return err
	}
	sc := g.scratch.Get().(*match.Scratch)
	defer g.scratch.Put(sc)
	sc.Tokenize(req.Query)
	if g.cache == nil {
		res, err := g.engine.MatchPrepared(req, sc)
		if err != nil {
			return err
		}
		visit(res, false, false)
		return nil
	}
	var kb [192]byte
	key := appendRequestKey(kb[:0], req, sc.Norm())
	if res, ok := g.cache.Get(key); ok {
		visit(res, true, true)
		return nil
	}
	c, leader := g.flight.join(key)
	if !leader {
		res, err := c.wait()
		if err != nil {
			return err
		}
		g.flight.hits.Add(1)
		visit(&res, false, true)
		return nil
	}
	res, err := g.engine.MatchPrepared(req, sc)
	if err != nil {
		g.flight.finish(c, match.Response{}, err)
		return err
	}
	stable := match.CloneResponse(res)
	g.cache.Put(key, stable)
	g.flight.finish(c, stable, nil)
	visit(&stable, false, true)
	return nil
}

// DoView is the view-based form of Do: cache-backed, identical
// semantics, but the response is passed to visit instead of copied out,
// so steady-state callers (benchmarks, proxies that marshal in place)
// skip the defensive copy. The response is read-only and valid only
// during visit — it may alias a pooled arena that the next request
// rewrites; retain it with match.CloneResponse. cached reports a
// request-cache hit.
func (s *Server) DoView(req match.Request, visit func(res *match.Response, cached bool)) error {
	return s.doGenView(s.gen.Load(), req, func(res *match.Response, cached, _ bool) {
		visit(res, cached)
	})
}

// doGen answers one request on one generation through the cache and the
// engine. The returned response may share slices with the cache: treat
// it as read-only (Do detaches for public callers). The bool reports a
// cache hit; a cached response carries the Timing of the request that
// computed it. The registry loads each domain's generation once per
// request and threads it through here, so every item of a batch is
// answered by one dictionary even when a hot reload lands mid-request.
func (s *Server) doGen(g *generation, req match.Request) (match.Response, bool, error) {
	var out match.Response
	var hit bool
	err := s.doGenView(g, req, func(res *match.Response, cached, stable bool) {
		hit = cached
		if stable {
			out = *res
		} else {
			// Arena-backed (cache disabled): clone before the scratch is
			// pooled again.
			out = match.CloneResponse(res)
		}
	})
	if err != nil {
		return match.Response{}, false, err
	}
	return out, hit, nil
}

// Do is the public one-call form of the unified API: cache-backed,
// identical semantics to POST /v1/match with a single query. The
// response is detached from the cache and safe to mutate.
func (s *Server) Do(req match.Request) (match.Response, error) {
	res, _, err := s.doGen(s.gen.Load(), req)
	if err != nil {
		return match.Response{}, err
	}
	return detachResponse(res), nil
}

// Handler returns the HTTP API of the registry this server is mounted on
// (see Registry.Mount): for a NewServer server, the standalone surface.
func (s *Server) Handler() http.Handler { return s.reg.Handler() }

// Mount registers that API on an existing mux.
func (s *Server) Mount(mux *http.ServeMux) { s.reg.Mount(mux) }

// DoItem is Registry.DoItem on the server's registry.
func (s *Server) DoItem(it match.Request, domains []string) V1Result {
	return s.reg.DoItem(it, domains)
}

// detachResponse deep-copies the slices a caller could mutate, so
// neither the caller nor the cache can corrupt the other.
func detachResponse(r match.Response) match.Response {
	if r.Matches != nil {
		r.Matches = append([]match.SpanMatch(nil), r.Matches...)
		for i := range r.Matches {
			if alts := r.Matches[i].Alternates; alts != nil {
				r.Matches[i].Alternates = append([]match.Alternate(nil), alts...)
			}
		}
	}
	if r.Trace != nil {
		r.Trace = append([]match.TraceStep(nil), r.Trace...)
	}
	if r.Attributes != nil {
		r.Attributes = append([]match.Predicate(nil), r.Attributes...)
	}
	return r
}

// runPool applies fn to every index in [0, n) on a bounded worker pool:
// the registry's batches and wide fan-outs, and the legacy MatchBatch.
func runPool(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Workers claim fixed-size chunks of the index space, not single
	// indexes: one atomic RMW per chunk instead of per item. With short
	// per-item work (a cached match is under a microsecond) a per-item
	// counter serializes every worker on one cache line and flattens
	// batch throughput beyond a few workers. Chunks of n/(workers*8)
	// keep ~8 claims per worker for tail balance.
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// SynonymsResult is the JSON shape of /synonyms.
type SynonymsResult struct {
	Input    string   `json:"input"`
	Synonyms []string `json:"synonyms"`
}

func (s *Server) handleSynonyms(w http.ResponseWriter, r *http.Request) {
	u := r.URL.Query().Get("u")
	if u == "" {
		http.Error(w, "missing u parameter", http.StatusBadRequest)
		return
	}
	s.synReqs.Add(1)
	g := s.gen.Load()
	norm := textnorm.Normalize(u)
	id, ok := g.byNorm[norm]
	if !ok {
		http.Error(w, "unknown canonical string", http.StatusNotFound)
		return
	}
	writeJSON(w, SynonymsResult{Input: g.canonicals[id], Synonyms: g.synonyms[norm]})
}

// Stats is the JSON shape of /statsz.
type Stats struct {
	Dataset       string  `json:"dataset"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Generation is the serving generation: 1 at boot, +1 per snapshot
	// hot-swap. Swaps counts the swaps since boot (Generation - 1).
	Generation uint64 `json:"generation"`
	Swaps      uint64 `json:"swaps"`
	// SnapshotVersion is the layout version of the installed snapshot
	// file (0 when the dictionary was mined in-process).
	SnapshotVersion int `json:"snapshot_version,omitempty"`
	Dictionary      struct {
		Entries      int `json:"entries"`
		Entities     int `json:"entities"`
		FuzzyStrings int `json:"fuzzy_strings"`
	} `json:"dictionary"`
	Cache    CacheStats `json:"cache"`
	Requests struct {
		Match        uint64 `json:"match"`
		Batch        uint64 `json:"batch"`
		BatchQueries uint64 `json:"batch_queries"`
		Fuzzy        uint64 `json:"fuzzy"`
		Synonyms     uint64 `json:"synonyms"`
		V1           uint64 `json:"v1"`
		V1Queries    uint64 `json:"v1_queries"`
		// V2/V2Queries count POST /v2/match traffic; omitted (zero)
		// until the first v2 request, so the legacy /statsz shape is
		// unchanged for v1-only deployments.
		V2        uint64 `json:"v2,omitempty"`
		V2Queries uint64 `json:"v2_queries,omitempty"`
		// RoutedQueries counts queries a named registry delivered to
		// this domain; omitted (zero) on standalone servers, so the
		// legacy /statsz shape is unchanged.
		RoutedQueries uint64 `json:"routed_queries,omitempty"`
	} `json:"requests"`
	Latency struct {
		Match LatencyStats `json:"match"`
		Batch LatencyStats `json:"batch"`
		V1    LatencyStats `json:"v1"`
		// V2 appears once /v2/match has served a request.
		V2 *LatencyStats `json:"v2,omitempty"`
	} `json:"latency"`
}

// Stats returns a point-in-time view of the server's counters. Cache
// stats are the current generation's: a hot reload installs a fresh
// cache, so they restart at zero after a swap. The v1/v2 meters are the
// registry's: a standalone server reports them here (the flat legacy
// shape); a named domain leaves them to RegistryStats and reports
// routed_queries instead.
func (s *Server) Stats() Stats {
	g := s.gen.Load()
	var st Stats
	st.Dataset = g.dataset
	st.UptimeSeconds = time.Since(s.reg.start).Seconds()
	st.Generation = g.id
	st.Swaps = g.id - 1
	st.SnapshotVersion = g.meta.Version
	st.Dictionary.Entries = g.dict.Len()
	st.Dictionary.Entities = len(g.canonicals)
	st.Dictionary.FuzzyStrings = g.fuzzy.Len()
	st.Cache = g.cache.Stats()
	st.Cache.SingleflightHits = g.flight.hits.Load()
	st.Cache.SingleflightShared = g.flight.shared.Load()
	st.Requests.Match = s.matchReqs.Load()
	st.Requests.Batch = s.batchReqs.Load()
	st.Requests.BatchQueries = s.batchQueries.Load()
	st.Requests.Fuzzy = s.fuzzyReqs.Load()
	st.Requests.Synonyms = s.synReqs.Load()
	st.Latency.Match = s.matchLat.snapshot()
	st.Latency.Batch = s.batchLat.snapshot()
	if reg := s.reg; reg.standalone {
		st.Requests.V1, st.Requests.V1Queries = reg.api[v1].reqs.Load(), reg.api[v1].queries.Load()
		st.Requests.V2, st.Requests.V2Queries = reg.api[v2].reqs.Load(), reg.api[v2].queries.Load()
		st.Latency.V1, st.Latency.V2 = reg.latencyStats()
	} else {
		st.Requests.RoutedQueries = s.routedQueries.Load()
	}
	return st
}

// SnapshotInfo is the JSON shape of GET /admin/snapshot: which
// dictionary generation is live and where it came from.
type SnapshotInfo struct {
	// Generation is 1 for the boot snapshot and increments on every
	// hot swap; Swaps is the number of swaps since boot.
	Generation uint64 `json:"generation"`
	Swaps      uint64 `json:"swaps"`
	Dataset    string `json:"dataset"`
	// Snapshot is the provenance of the installed file (path, SHA-256,
	// layout version); zero-valued for in-process mined state.
	Snapshot SnapshotMeta `json:"snapshot"`
	// BuildMillis is how long Prepare took to assemble this generation
	// (fuzzy index, engine, entity indexing) before it was swapped in.
	BuildMillis float64 `json:"build_ms"`
	// LoadedAt is when the generation was installed.
	LoadedAt    time.Time `json:"loaded_at"`
	Entities    int       `json:"entities"`
	DictEntries int       `json:"dict_entries"`
}

// SnapshotInfo returns the live generation's provenance.
func (s *Server) SnapshotInfo() SnapshotInfo {
	g := s.gen.Load()
	return SnapshotInfo{
		Generation:  g.id,
		Swaps:       g.id - 1,
		Dataset:     g.dataset,
		Snapshot:    g.meta,
		BuildMillis: float64(g.buildDur.Nanoseconds()) / 1e6,
		LoadedAt:    g.loadedAt,
		Entities:    len(g.canonicals),
		DictEntries: g.dict.Len(),
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("serve: encoding response: %v", err)
	}
}
