package websyn

import (
	"net/http"
	"strings"

	"websyn/internal/rewrite"
	"websyn/internal/serve"
	"websyn/internal/serve/reload"
)

// Serving re-exports: the online tier over the mined dictionary.
type (
	// Snapshot is the versioned on-disk bundle of serving state
	// (dictionary + entity table + synonyms).
	Snapshot = serve.Snapshot
	// MatchServer is the online matching tier: cache, batch pool,
	// trigram fuzzy index, HTTP handlers.
	MatchServer = serve.Server
	// ServeConfig tunes a MatchServer.
	ServeConfig = serve.Config
	// SnapshotMeta records the provenance (path, SHA-256, layout
	// version) of an installed snapshot.
	SnapshotMeta = serve.SnapshotMeta
	// Reloader hot-swaps a running MatchServer onto new snapshots:
	// file watching, canary validation, POST /admin/reload.
	Reloader = reload.Reloader
	// ReloadConfig tunes a Reloader.
	ReloadConfig = reload.Config
	// Registry is the multi-domain serving tier: one process serving
	// several verticals, each with its own generation handle, request
	// cache and reload watcher, behind a federated /v1/match.
	Registry = serve.Registry
	// ReloadGroup runs one snapshot watcher per domain with a shared
	// per-domain admin surface.
	ReloadGroup = reload.Group
)

// DefaultFuzzyMinSim is the Dice-similarity threshold snapshots are
// built with unless overridden.
const DefaultFuzzyMinSim = 0.55

// NewMatchServer builds the online tier from a snapshot.
func NewMatchServer(snap *Snapshot, cfg ServeConfig) *MatchServer {
	return serve.NewServer(snap, cfg)
}

// NewMatchServerWithMeta is NewMatchServer recording the boot snapshot's
// provenance (file path, SHA-256) for /admin/snapshot.
func NewMatchServerWithMeta(snap *Snapshot, cfg ServeConfig, meta SnapshotMeta) *MatchServer {
	return serve.NewServerWithMeta(snap, cfg, meta)
}

// NewReloader builds a snapshot hot-reloader for a running server; see
// internal/serve/reload for semantics (poll + canary + atomic swap).
func NewReloader(s *MatchServer, cfg ReloadConfig) (*Reloader, error) {
	return reload.New(s, cfg)
}

// NewRegistry builds an empty multi-domain registry; register each
// vertical's snapshot with Registry.Add.
func NewRegistry(cfg ServeConfig) *Registry { return serve.NewRegistry(cfg) }

// MountProfiling registers the net/http/pprof handlers under
// /debug/pprof/ with mutex and block profiling enabled — the contention
// debugging surface behind matchd/router -pprof. Not part of the
// default Mount: pprof exposes process internals, so listeners opt in.
func MountProfiling(mux *http.ServeMux) { serve.MountProfiling(mux) }

// NewReloadGroup builds an empty per-domain reload watcher group.
func NewReloadGroup() *ReloadGroup { return reload.NewGroup() }

// ReadSnapshotFile loads a serving snapshot from a file, decoded onto
// the heap.
func ReadSnapshotFile(path string) (*Snapshot, error) { return serve.ReadSnapshotFile(path) }

// ReadSnapshotFileHashed is ReadSnapshotFile also returning the hex
// SHA-256 of the file bytes (the provenance hash hot reload keys change
// detection on).
func ReadSnapshotFileHashed(path string) (*Snapshot, string, error) {
	return serve.ReadSnapshotFileHashed(path)
}

// OpenSnapshotMapped loads a serving snapshot through the same decoder
// with its fuzzy posting slabs left aliasing the memory-mapped file, so
// boot skips the posting decode entirely and the slab pages stay shared
// with the OS page cache. See docs/PERFORMANCE.md#memory-model.
func OpenSnapshotMapped(path string) (*Snapshot, error) {
	return serve.OpenSnapshotMapped(path)
}

// OpenSnapshotMappedHashed is OpenSnapshotMapped also returning the hex
// SHA-256 of the file bytes.
func OpenSnapshotMappedHashed(path string) (*Snapshot, string, error) {
	return serve.OpenSnapshotMappedHashed(path)
}

// MineSnapshot runs the offline pipeline end to end — simulation, miner,
// snapshot compilation — the one-call form behind cmd/dictbuild and
// matchd's mine-at-startup mode. minSim <= 0 means DefaultFuzzyMinSim.
func MineSnapshot(ds Dataset, cfg MinerConfig, seed uint64, minSim float64) (*Snapshot, error) {
	sim, err := NewSimulation(Options{Dataset: ds, Seed: seed})
	if err != nil {
		return nil, err
	}
	results, err := sim.MineAll(cfg)
	if err != nil {
		return nil, err
	}
	return sim.BuildSnapshot(results, minSim), nil
}

// BuildSnapshot compiles mined results into a serving snapshot: the
// dictionary via BuildDictionary, the entity table, the per-entity
// synonym listing, the packed fuzzy index precomputed offline so
// servers boot it without re-gramming the dictionary, and the attribute
// vocabulary mined from the catalog's structured columns for the /v2
// rewrite stage. minSim <= 0 means DefaultFuzzyMinSim.
func (s *Simulation) BuildSnapshot(results []*MineResult, minSim float64) *Snapshot {
	if minSim <= 0 {
		minSim = DefaultFuzzyMinSim
	}
	dict := s.BuildDictionary(results)
	snap := &Snapshot{
		Dataset:    s.Options.Dataset.String(),
		MinSim:     minSim,
		Canonicals: s.Catalog.Canonicals(),
		Synonyms:   make(map[string][]string, len(results)),
		Dict:       dict,
		Fuzzy:      dict.NewFuzzyIndex(minSim).Packed(),
		Vocab:      rewrite.Mine(strings.ToLower(s.Options.Dataset.String()), s.Catalog),
	}
	for _, r := range results {
		snap.Synonyms[r.Norm] = r.Synonyms
	}
	return snap
}
