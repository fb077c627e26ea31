// Command matchd serves the mined synonym dictionary over HTTP: the online
// half of the paper's scenario, where an incoming Web query like
// "indy 4 near san fran" must be fuzzily matched to structured data.
//
// Endpoints:
//
//	POST /v1/match          — unified match API: single + batch, span-level
//	                          fuzzy matching, explain traces, and (multi-
//	                          domain mode) domain routing and federated
//	                          fan-out (docs/API.md)
//	GET  /match?q=<query>   — legacy: segment the query against the dictionary
//	POST /match/batch       — legacy: segment many queries in one request
//	GET  /fuzzy?q=<query>   — legacy: whole-string fuzzy lookup
//	GET  /synonyms?u=<name> — list the mined synonyms of a canonical string
//	GET  /statsz            — cache, dictionary and latency stats
//	GET  /healthz           — liveness
//	GET  /admin/snapshot    — live dictionary generation(s) and provenance
//	POST /admin/reload      — hot-swap a snapshot now (-snapshot only)
//	GET  /admin/reload/status — reload watcher counters (-snapshot only)
//
// The expensive part — simulating the logs and mining the dictionary — is
// offline work. Production startup loads prebuilt snapshots (see
// cmd/dictbuild) and is ready in milliseconds.
//
// Single-domain (legacy) mode — one snapshot, byte-identical to every
// earlier matchd:
//
//	matchd -snapshot dict.snap
//
// Multi-domain mode — one process serving several verticals, each
// hot-reloadable on its own. Repeat -snapshot with name=path pairs, or
// point -manifest at a file of such lines:
//
//	matchd -snapshot movies=movies.snap -snapshot cameras=cameras.snap
//	matchd -manifest domains.manifest [-default-domain movies]
//
// In multi-domain mode /v1/match routes on the request's "domain" field,
// fans out across "domains" (["*"] = all), and federates domainless
// queries across every vertical; legacy endpoints serve the default
// domain (first registered unless -default-domain says otherwise), or
// ?domain=<name>.
//
// Without -snapshot, matchd mines at startup (slow, for development):
//
//	matchd [-dataset movies|cameras|software] [-ipc 4] [-icr 0.1] [-seed N]
//
// Mine-at-startup can also persist its work for next time and exit:
//
//	matchd -dataset movies -write-snapshot dict.snap
//
// Serving knobs: [-addr :8080] [-cache 4096] [-cache-shards N]
// [-batch-workers N] [-max-batch 1024] [-fuzzy-limit 5] [-min-sim 0.55]
// [-drain-timeout 15s] [-mmap] [-pprof]
//
// -pprof mounts /debug/pprof/ with mutex and block profiling on, the
// lock-contention debugging surface (docs/PERFORMANCE.md).
//
// -mmap memory-maps each snapshot file instead of decoding it onto the
// heap: the fuzzy posting slabs are served straight from the page
// cache, boot skips the posting decode, and concurrent matchd processes
// on one host share the snapshot pages (docs/PERFORMANCE.md).
//
// Hot reload (requires -snapshot): [-reload-interval 0] polls every
// snapshot file and swaps new dictionary generations in atomically —
// per domain, so one vertical's publish never touches another's serving
// state. POST /admin/reload (multi-domain: ?domain=<name>) triggers a
// check immediately, GET /admin/snapshot reports the live generation(s),
// and [-canary "q1,q2"] (multi-domain: "domain:q1,domain:q2") adds
// validation queries a candidate snapshot must match before it may
// serve.
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests (large batches included) for up to -drain-timeout
// before exiting. The reload watchers stop with the same signal, and a
// swap that races the drain only replaces in-memory state — it can
// never resurrect the closed listener.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"websyn"
	"websyn/internal/fleet"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// domainSpec is one name=path snapshot assignment.
type domainSpec struct {
	name, path string
}

func main() {
	var snapshots multiFlag
	flag.Var(&snapshots, "snapshot", "snapshot to serve: a path (single-domain), or name=path (repeatable, multi-domain)")
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		manifest       = flag.String("manifest", "", "file of name=path snapshot lines (multi-domain boot; '#' comments)")
		defaultDomain  = flag.String("default-domain", "", "domain legacy endpoints route to (default: first registered)")
		writeSnapshot  = flag.String("write-snapshot", "", "mine, write a snapshot to this path, and exit")
		dataset        = flag.String("dataset", "movies", "data set to mine when not using -snapshot: movies, cameras or software")
		ipc            = flag.Int("ipc", 4, "IPC threshold β (mining)")
		icr            = flag.Float64("icr", 0.1, "ICR threshold γ (mining)")
		seed           = flag.Uint64("seed", 0, "simulation seed (0 = default)")
		cacheSize      = flag.Int("cache", 0, "request-cache capacity in entries, per domain (0 = default 4096, negative = disabled)")
		cacheShards    = flag.Int("cache-shards", 0, "request-cache lock stripes, rounded down to a power of two (0 = one per CPU, min 8 entries per shard)")
		batchWorkers   = flag.Int("batch-workers", 0, "worker-pool size for batch requests (0 = GOMAXPROCS)")
		maxBatch       = flag.Int("max-batch", 0, "max queries per batch request (0 = default 1024)")
		fuzzyLimit     = flag.Int("fuzzy-limit", 5, "max hits returned by /fuzzy")
		minSim         = flag.Float64("min-sim", 0, "fuzzy similarity threshold override (0 = snapshot's value)")
		useMmap        = flag.Bool("mmap", false, "memory-map snapshot files: near-instant boot, fuzzy postings served from the page cache (requires -snapshot)")
		drainTimeout   = flag.Duration("drain-timeout", 15*time.Second, "how long to drain in-flight requests on shutdown")
		reloadInterval = flag.Duration("reload-interval", 0, "poll snapshot files for changes this often and hot-swap (0 = admin-triggered reloads only; requires -snapshot)")
		canary         = flag.String("canary", "", "comma-separated queries a new snapshot must match before a hot swap (multi-domain: domain:query entries)")
		fleetAddr      = flag.String("fleet-addr", "", "also serve the fleet wire protocol on this address (replica mode, see cmd/router)")
		blobDir        = flag.String("blob-dir", "", "content-addressed blob directory to pull snapshots from (requires -snapshot; see cmd/router -publish)")
		pullInterval   = flag.Duration("pull-interval", 2*time.Second, "blob-store pointer poll period with -blob-dir (0 = POST /admin/pull only)")
		pprofEnable    = flag.Bool("pprof", false, "mount /debug/pprof/ with mutex and block profiling enabled (exposes process internals; keep off public listeners)")
	)
	flag.Parse()

	specs, err := resolveSpecs(snapshots, *manifest)
	if err != nil {
		log.Fatal(err)
	}

	cfg := websyn.ServeConfig{
		CacheSize:    *cacheSize,
		CacheShards:  *cacheShards,
		BatchWorkers: *batchWorkers,
		MaxBatch:     *maxBatch,
		FuzzyLimit:   *fuzzyLimit,
		MinSim:       *minSim,
	}

	// Fail flag misuse fast, before the (potentially minutes-long)
	// mine-at-startup path runs: hot reload watches snapshot files, so
	// both knobs are meaningless without one.
	multiDomain := len(specs) > 1 || (len(specs) == 1 && specs[0].name != "")
	if len(specs) == 0 {
		if *reloadInterval > 0 {
			log.Fatal("-reload-interval requires -snapshot (mined-at-startup state has no file to watch)")
		}
		if *canary != "" {
			log.Fatal("-canary requires -snapshot (canaries gate snapshot hot swaps)")
		}
		if *useMmap {
			log.Fatal("-mmap requires -snapshot (mined-at-startup state has no file to map)")
		}
	}
	if *defaultDomain != "" && !multiDomain {
		log.Fatal("-default-domain requires multi-domain -snapshot name=path flags")
	}
	if *blobDir != "" && len(specs) == 0 {
		log.Fatal("-blob-dir requires -snapshot (pulled snapshots land in the watched snapshot files)")
	}
	if *writeSnapshot != "" && len(specs) > 0 {
		log.Fatal("-write-snapshot is a mine-at-startup flag and cannot be combined with -snapshot; build snapshots with cmd/dictbuild")
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var store *fleet.Store
	if *blobDir != "" {
		store = &fleet.Store{Dir: *blobDir}
	}

	start := time.Now()
	boot := booter{
		cfg:            cfg,
		reloadInterval: *reloadInterval,
		useMmap:        *useMmap,
		store:          store,
		pullInterval:   *pullInterval,
	}
	var mux *http.ServeMux
	var backend fleet.Backend
	switch {
	case multiDomain:
		mux, backend = boot.registry(ctx, specs, *defaultDomain, *canary)
	case len(specs) == 1:
		mux, backend = boot.standalone(ctx, specs[0], *canary)
	default:
		snap, err := mineSnapshot(*dataset, *ipc, *icr, *seed)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("mined %s dictionary: %d entries in %v",
			snap.Dataset, snap.Dict.Len(), time.Since(start).Round(time.Millisecond))
		if *writeSnapshot != "" {
			if err := snap.WriteFile(*writeSnapshot); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote snapshot %s", *writeSnapshot)
			return
		}
		mux, backend = mount(websyn.NewMatchServer(snap, cfg))
	}

	if *pprofEnable {
		websyn.MountProfiling(mux)
		log.Printf("pprof: /debug/pprof/ mounted with mutex and block profiling")
	}

	// Replica mode: the same backend answers the compact wire protocol
	// for a fleet router, next to the HTTP listener.
	if *fleetAddr != "" {
		ln, err := net.Listen("tcp", *fleetAddr)
		if err != nil {
			log.Fatal(err)
		}
		fsrv := fleet.NewServer(backend, nil)
		go func() {
			if err := fsrv.Serve(ctx, ln); err != nil {
				log.Printf("fleet: %v", err)
			}
		}()
		log.Printf("fleet: wire protocol listening on %s", ln.Addr())
	}

	log.Printf("serving ready in %v, listening on %s", time.Since(start).Round(time.Millisecond), *addr)
	srv := &http.Server{
		Addr:         *addr,
		Handler:      mux,
		ReadTimeout:  5 * time.Second,
		WriteTimeout: 30 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal behavior: a second signal kills
		log.Printf("shutdown signal received, draining for up to %v", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
		// Shutdown does not wait for the reload watchers: a reload still
		// building when the drain ends is abandoned with the process
		// (it only ever swaps in-memory state, never writes files), so
		// -drain-timeout genuinely bounds shutdown.
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("server: %v", err)
		}
		log.Print("shutdown complete")
	}
}

// resolveSpecs merges -snapshot flags and the -manifest file into one
// spec list. Bare paths (no '=') select legacy single-domain mode and
// cannot be mixed with named domains.
func resolveSpecs(flags multiFlag, manifest string) ([]domainSpec, error) {
	var specs []domainSpec
	bare := 0
	addFlag := func(v, origin string) error {
		if name, path, ok := strings.Cut(v, "="); ok {
			name, path = strings.TrimSpace(name), strings.TrimSpace(path)
			if name == "" || path == "" {
				return fmt.Errorf("matchd: bad snapshot spec %q in %s (want name=path)", v, origin)
			}
			specs = append(specs, domainSpec{name, path})
			return nil
		}
		bare++
		specs = append(specs, domainSpec{"", strings.TrimSpace(v)})
		return nil
	}
	for _, v := range flags {
		if err := addFlag(v, "-snapshot"); err != nil {
			return nil, err
		}
	}
	if manifest != "" {
		f, err := os.Open(manifest)
		if err != nil {
			return nil, fmt.Errorf("matchd: opening manifest: %w", err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for lineNo := 1; sc.Scan(); lineNo++ {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if !strings.Contains(line, "=") {
				return nil, fmt.Errorf("matchd: %s:%d: want name=path, got %q", manifest, lineNo, line)
			}
			if err := addFlag(line, manifest); err != nil {
				return nil, err
			}
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("matchd: reading manifest: %w", err)
		}
		// An empty manifest must not fall through to mine-at-startup —
		// that would silently serve a freshly mined dictionary where the
		// operator expected production snapshots.
		if len(specs) == 0 {
			return nil, fmt.Errorf("matchd: manifest %s declares no domains", manifest)
		}
	}
	if bare > 0 && (bare > 1 || len(specs) > 1) {
		return nil, fmt.Errorf("matchd: multiple snapshots need domain names (-snapshot name=path)")
	}
	// Duplicate domains fail here with file context, not deep in Add.
	seen := map[string]bool{}
	for _, s := range specs {
		if s.name != "" && seen[s.name] {
			return nil, fmt.Errorf("matchd: domain %q assigned two snapshots", s.name)
		}
		seen[s.name] = true
	}
	return specs, nil
}

// defaultPullDomain is the blob-store domain name a single-snapshot
// replica pulls: legacy deployments have no domain concept, but the
// content-addressed store needs a pointer-file name.
const defaultPullDomain = "default"

// booter carries the flags every domain boots with.
type booter struct {
	cfg            websyn.ServeConfig
	reloadInterval time.Duration
	useMmap        bool
	store          *fleet.Store // nil without -blob-dir
	pullInterval   time.Duration
}

// mount puts a standalone server on a fresh mux.
func mount(s *websyn.MatchServer) (*http.ServeMux, fleet.Backend) {
	mux := http.NewServeMux()
	s.Mount(mux)
	return mux, s
}

// domain brings one snapshot file up: boot-fetch from the blob store,
// load, build its server (on reg when there is one), its reloader and —
// with a blob store — its puller. The standalone spec has no name: it
// logs without the "domain <name>:" prefix and pulls defaultPullDomain.
func (b booter) domain(spec domainSpec, canary []string, reg *websyn.Registry, pullers *fleet.Pullers) (*websyn.MatchServer, *websyn.Reloader) {
	pullName, prefix, loaded := defaultPullDomain, "", "loaded snapshot"
	var logf func(format string, args ...any) // nil: log.Printf
	if spec.name != "" {
		pullName, prefix, loaded = spec.name, "domain "+spec.name+": ", "loaded"
		logf = func(format string, args ...any) { log.Printf(prefix+format, args...) }
	}
	blobSHA := ""
	if b.store != nil {
		blobSHA = bootFetchBlob(b.store, pullName, spec.path)
	}
	t0 := time.Now()
	// The reloader needs the booted content's SHA-256 to seed its change
	// detection; both openers hash the bytes they decode.
	snap, sha, err := loadSnapshot(spec.path, b.useMmap)
	if err != nil {
		log.Fatalf("%s%v", prefix, err)
	}
	meta := websyn.SnapshotMeta{Path: spec.path, SHA256: sha}
	var srv *websyn.MatchServer
	if reg == nil {
		srv = websyn.NewMatchServerWithMeta(snap, b.cfg, meta)
	} else if srv, err = reg.Add(spec.name, snap, meta); err != nil {
		log.Fatal(err)
	}
	log.Printf("%s%s %s (%s, %d dictionary entries, sha256 %.12s) in %v",
		prefix, loaded, spec.path, snap.Dataset, snap.Dict.Len(), sha, time.Since(t0).Round(time.Millisecond))
	r, err := websyn.NewReloader(srv, websyn.ReloadConfig{
		Path:     spec.path,
		Interval: b.reloadInterval,
		Canary:   canary,
		BootSHA:  sha, // already hashed above; skip a second full read
		Mmap:     b.useMmap,
		Logf:     logf,
	})
	if err != nil {
		log.Fatalf("%s%v", prefix, err)
	}
	if b.store != nil {
		p := &fleet.Puller{Store: b.store, Domain: pullName, Reloader: r, Interval: b.pullInterval, Logf: logf}
		p.SetBootSHA(blobSHA)
		if err := pullers.Add(p); err != nil {
			log.Fatal(err)
		}
	}
	return srv, r
}

// admin mounts the blob-pull surface and logs how reloads and pulls are
// triggered: param is the ?domain= hint a named registry's routes need,
// the rest name what they act on.
func (b booter) admin(ctx context.Context, mux *http.ServeMux, pullers *fleet.Pullers, param, pollWhat, swapWhat, pullWhat string) {
	if b.store != nil {
		pullers.Mount(mux)
		if b.pullInterval > 0 {
			go pullers.Run(ctx)
			log.Printf("blob pull: polling %s pointer in %s every %v", pullWhat, b.store.Dir, b.pullInterval)
		} else {
			log.Printf("blob pull: POST /admin/pull%s fetches from %s", param, b.store.Dir)
		}
	}
	if b.reloadInterval > 0 {
		log.Printf("hot reload: polling %s every %v (POST /admin/reload%s to trigger now)", pollWhat, b.reloadInterval, param)
	} else {
		log.Printf("hot reload: POST /admin/reload%s swaps %s in", param, swapWhat)
	}
}

// standalone is the single-snapshot shape, byte-identical to every
// earlier matchd: one server, one watcher, no domain routing.
func (b booter) standalone(ctx context.Context, spec domainSpec, canary string) (*http.ServeMux, fleet.Backend) {
	canaries, err := parseCanaries(canary, nil)
	if err != nil {
		log.Fatal(err)
	}
	pullers := fleet.NewPullers()
	s, r := b.domain(spec, canaries[""], nil, pullers)
	mux, backend := mount(s)
	r.Mount(mux)
	go r.Run(ctx)
	b.admin(ctx, mux, pullers, "", spec.path, spec.path, defaultPullDomain)
	return mux, backend
}

// registry is the multi-domain shape: one server and one reload watcher
// per named snapshot behind a domain Registry.
func (b booter) registry(ctx context.Context, specs []domainSpec, defaultDomain, canary string) (*http.ServeMux, fleet.Backend) {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	canaries, err := parseCanaries(canary, names)
	if err != nil {
		log.Fatal(err)
	}

	reg := websyn.NewRegistry(b.cfg)
	group := websyn.NewReloadGroup()
	pullers := fleet.NewPullers()
	for _, spec := range specs {
		_, r := b.domain(spec, canaries[spec.name], reg, pullers)
		if err := group.Add(spec.name, r); err != nil {
			log.Fatal(err)
		}
	}
	if defaultDomain != "" {
		if err := reg.SetDefault(defaultDomain); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("registry: %d domains (%s), default %s",
		len(specs), strings.Join(reg.Names(), ", "), reg.DefaultName())

	mux := http.NewServeMux()
	reg.Mount(mux)
	group.Mount(mux)
	go group.Run(ctx)
	b.admin(ctx, mux, pullers, "?domain=<name>", "every domain snapshot", "that domain's snapshot", "every domain")
	return mux, reg
}

// bootFetchBlob syncs one domain's local spool file from its blob-store
// pointer before boot, so a replica with an empty disk comes up serving
// the fleet's current snapshot. Returns the fetched SHA ("" when the
// store has no pointer yet, or the local file had to serve as fallback).
func bootFetchBlob(store *fleet.Store, domain, path string) string {
	sha, err := store.Current(domain)
	if err != nil {
		log.Fatalf("domain %s: %v", domain, err)
	}
	if sha == "" {
		if _, statErr := os.Stat(path); statErr != nil {
			log.Fatalf("domain %s: no local snapshot %s and no pointer in blob store %s", domain, path, store.Dir)
		}
		return ""
	}
	if err := store.Fetch(sha, path); err != nil {
		if _, statErr := os.Stat(path); statErr == nil {
			log.Printf("domain %s: blob fetch failed (%v), serving local %s", domain, err, path)
			return ""
		}
		log.Fatalf("domain %s: %v", domain, err)
	}
	log.Printf("domain %s: boot-fetched %.12s from %s", domain, sha, store.Dir)
	return sha
}

// parseCanaries splits the -canary flag. In single-domain mode (domains
// nil) every entry gates the one watcher and is returned under "". In
// multi-domain mode entries must be domain:query — a bare query cannot
// sensibly gate every vertical's dictionary at once.
func parseCanaries(flagValue string, domains []string) (map[string][]string, error) {
	out := map[string][]string{}
	if flagValue == "" {
		return out, nil
	}
	known := map[string]bool{}
	for _, d := range domains {
		known[d] = true
	}
	for _, entry := range strings.Split(flagValue, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if domains == nil {
			out[""] = append(out[""], entry)
			continue
		}
		domain, q, ok := strings.Cut(entry, ":")
		domain, q = strings.TrimSpace(domain), strings.TrimSpace(q)
		if !ok || domain == "" || q == "" {
			return nil, fmt.Errorf("matchd: multi-domain -canary entries are domain:query, got %q", entry)
		}
		if !known[domain] {
			return nil, fmt.Errorf("matchd: -canary names unknown domain %q", domain)
		}
		out[domain] = append(out[domain], q)
	}
	return out, nil
}

// loadSnapshot reads a snapshot file for serving, memory-mapping it
// when asked.
func loadSnapshot(path string, useMmap bool) (*websyn.Snapshot, string, error) {
	if useMmap {
		return websyn.OpenSnapshotMappedHashed(path)
	}
	return websyn.ReadSnapshotFileHashed(path)
}

// mineSnapshot runs the offline pipeline in-process: simulation, miner,
// dictionary compilation.
func mineSnapshot(dataset string, ipc int, icr float64, seed uint64) (*websyn.Snapshot, error) {
	ds, err := websyn.ParseDataset(dataset)
	if err != nil {
		return nil, err
	}
	log.Printf("building %v simulation and mining dictionary (use -snapshot for fast startup)...", ds)
	return websyn.MineSnapshot(ds, websyn.MinerConfig{IPC: ipc, ICR: icr}, seed, 0)
}
