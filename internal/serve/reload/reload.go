// Package reload hot-swaps a running serve.Server onto a new dictionary
// snapshot without dropping traffic.
//
// The paper's dictionary is not static — new movies, cameras and
// software releases ship weekly, so the mined snapshot evolves
// continuously. A Reloader watches the snapshot file (cheap mtime/size
// poll, SHA-256 to dedupe rewrites of identical bytes), builds the new
// serving generation off the request path, validates it with a canary
// query set, and atomically installs it via the server's generation
// handle. In-flight requests finish on the old dictionary; the request
// cache is flushed per generation as a side effect of the swap.
//
// A reload can also be forced at any time with POST /admin/reload (see
// Mount), which is how deployment pipelines and the reload-under-load
// tests drive deterministic swaps.
//
// Failure policy: a snapshot that cannot be read (truncated, bad CRC,
// unknown version) or that fails canary validation is rejected and the
// old generation keeps serving; the failure is counted and surfaced on
// GET /admin/reload/status.
package reload

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"websyn/internal/match"
	"websyn/internal/serve"
)

// Config tunes a Reloader.
type Config struct {
	// Path is the snapshot file to watch and load. Required.
	Path string
	// Interval is the poll period for file changes. <= 0 disables
	// polling — reloads then happen only via Reload / POST /admin/reload.
	Interval time.Duration
	// Canary holds extra validation queries. Each must produce at least
	// one match on the candidate engine, or the swap is rejected. The
	// built-in canary — a deterministic sample of the new snapshot's own
	// canonical strings, each required to resolve to its own entity —
	// always runs; Canary adds domain-specific probes on top.
	Canary []string
	// CanarySample is how many canonical strings the built-in canary
	// samples from the candidate snapshot. 0 means 5; negative disables
	// the built-in sample (explicit Canary queries still run).
	CanarySample int
	// BootSHA is the hex SHA-256 of the snapshot the server booted on,
	// when the caller already computed it (matchd hashes the file while
	// loading). Set, it overrides the server's generation meta.
	BootSHA string
	// Mmap loads reloaded snapshots with serve.OpenSnapshotMapped, so a
	// new generation's fuzzy index aliases the file's pages instead of
	// being decoded onto the heap. Should match how the server booted.
	Mmap bool
	// Logf receives operational log lines. nil means log.Printf.
	Logf func(format string, args ...any)
}

// statRehashEvery is how many consecutive stat-identical polls may be
// skipped before one re-reads and re-hashes the file anyway. At the
// default it bounds the staleness window of an mtime/size-preserving
// publish to ~10 poll intervals instead of forever.
const statRehashEvery = 10

// Status is the JSON shape of GET /admin/reload/status.
type Status struct {
	Path     string `json:"path"`
	Interval string `json:"interval,omitempty"`
	// Checks counts change probes (polls + explicit reload requests);
	// Swaps successful installs; Failures rejected reloads.
	Checks   uint64 `json:"checks"`
	Swaps    uint64 `json:"swaps"`
	Failures uint64 `json:"failures"`
	// LastError is the most recent rejection, cleared by the next
	// successful swap.
	LastError string `json:"last_error,omitempty"`
	// LastCheck and LastSwap are nil until the first check/swap happens
	// (a non-pointer time.Time would serialize as year 1 under
	// omitempty, which never omits structs).
	LastCheck *time.Time `json:"last_check,omitempty"`
	LastSwap  *time.Time `json:"last_swap,omitempty"`
}

// Reloader drives snapshot hot-swaps for one server. All methods are
// safe for concurrent use; reloads themselves are serialized.
type Reloader struct {
	srv *serve.Server
	cfg Config

	mu sync.Mutex // serializes reload attempts and guards the memo below
	// Identity of the last file examined, to skip no-op reloads: the
	// stat pair is the cheap first-level check, the SHA the second.
	lastMod  time.Time
	lastSize int64
	lastSHA  string
	// SHA of the last *rejected* file, so a bad snapshot costs one
	// parse/build/canary attempt, not one per poll tick: until the
	// bytes change (or force), polling it again is a cheap skip.
	rejectedSHA string
	// statSkips counts consecutive checks answered by the stat fast
	// path; every statRehashEvery-th one re-hashes anyway, bounding how
	// long a publish that preserved mtime and size can stay invisible.
	statSkips int

	checks    atomic.Uint64
	swaps     atomic.Uint64
	failures  atomic.Uint64
	lastErr   atomic.Pointer[string]
	lastCheck atomic.Pointer[time.Time]
	lastSwap  atomic.Pointer[time.Time]
}

// New builds a Reloader for srv. It does not load anything: the server
// is expected to have booted on cfg.Path already. When neither
// cfg.BootSHA nor the server's generation meta carries the booted
// content's hash, the first check reinstalls the file once (safe, just
// redundant) and settles the memo.
func New(srv *serve.Server, cfg Config) (*Reloader, error) {
	if cfg.Path == "" {
		return nil, errors.New("reload: Config.Path is required")
	}
	if cfg.CanarySample == 0 {
		cfg.CanarySample = 5
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	r := &Reloader{srv: srv, cfg: cfg}
	// Memoize the *installed* content's hash so the first poll doesn't
	// pointlessly rebuild the generation the server already runs. Only a
	// hash of what actually booted is trustworthy — stat-and-hashing the
	// file now would pair the memo with whatever was renamed into place
	// since the boot read, masking that snapshot forever. The server's
	// own generation meta (NewServerWithMeta / a prior Install) is such
	// a hash; cfg.BootSHA overrides it. When neither is known the memo
	// stays empty and the first check installs once redundantly — a
	// wasted build is safe, a masked update is not. No stat memo either
	// way: the first check settles it against the hash it computes.
	r.lastSHA = cfg.BootSHA
	if r.lastSHA == "" {
		r.lastSHA = srv.SnapshotInfo().Snapshot.SHA256
	}
	// A canary that matches nothing on the dictionary serving right now
	// would reject every future snapshot, silently freezing updates —
	// almost certainly a typo. Fail construction instead.
	for _, q := range cfg.Canary {
		res, err := srv.Engine().Match(match.Request{Query: q})
		if err != nil {
			return nil, fmt.Errorf("reload: canary %q: %w", q, err)
		}
		if len(res.Matches) == 0 {
			return nil, fmt.Errorf("reload: canary %q matches nothing on the current dictionary (typo? it would block every reload)", q)
		}
	}
	return r, nil
}

// Path returns the snapshot file the reloader watches and loads from —
// the local spool path a fleet snapshot puller must write fetched
// snapshots to before triggering Reload.
func (r *Reloader) Path() string { return r.cfg.Path }

// Run polls cfg.Path every cfg.Interval until ctx is cancelled. With a
// non-positive interval it returns immediately. Run never touches the
// HTTP listener: cancelling it (e.g. when shutdown begins draining)
// simply stops future swaps, and a swap that races the drain only
// replaces in-memory state.
func (r *Reloader) Run(ctx context.Context) {
	if r.cfg.Interval <= 0 {
		return
	}
	ticker := time.NewTicker(r.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			if swapped, err := r.Reload(false); err != nil {
				r.cfg.Logf("reload: %s rejected: %v", r.cfg.Path, err)
			} else if swapped {
				info := r.srv.SnapshotInfo()
				r.cfg.Logf("reload: installed %s (sha256 %.12s, snapshot v%d) as generation %d in %.1fms",
					r.cfg.Path, info.Snapshot.SHA256, info.Snapshot.Version, info.Generation, info.BuildMillis)
			}
		}
	}
}

// Reload checks the watched snapshot and swaps it in when it changed.
// force skips the change check and reinstalls even identical bytes.
// It reports whether a swap happened; on error the old generation keeps
// serving.
func (r *Reloader) Reload(force bool) (swapped bool, err error) {
	return r.reload(force, force)
}

// reload implements Reload. skipStat drops the mtime/size fast path and
// always hashes the file: the poller keeps the cheap stat check (one
// stat per tick), but an explicit POST /admin/reload must not be fooled
// by a publish that preserved both timestamp and size (coarse-mtime
// filesystems, timestamp-preserving copy tools) — content is what
// decides.
func (r *Reloader) reload(force, skipStat bool) (swapped bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checks.Add(1)
	now := time.Now()
	r.lastCheck.Store(&now)

	st, err := os.Stat(r.cfg.Path)
	if err != nil {
		return false, r.fail(fmt.Errorf("stat snapshot: %w", err))
	}
	if !force && !skipStat && st.ModTime().Equal(r.lastMod) && st.Size() == r.lastSize {
		// A publish can preserve both mtime and size (coarse-timestamp
		// filesystems, `cp -p`-style tools), so don't trust the stat
		// pair forever: fall through to a content hash periodically.
		if r.statSkips++; r.statSkips < statRehashEvery {
			return false, nil
		}
	}
	r.statSkips = 0
	// One open per check: the bytes that are hashed are the bytes that
	// are parsed, so a publisher renaming a new file into place mid-check
	// cannot pair one file's hash with another's content.
	snap, sha, err := serve.LoadSnapshotFile(r.cfg.Path, r.cfg.Mmap, func(sha string) bool {
		// Identical bytes (a no-op re-publish), or the same bad bytes we
		// already rejected (the original rejection stays on LastError):
		// stop at the hash — no parse, no rebuild — until the file
		// changes or the caller forces.
		return force || (sha != r.lastSHA && sha != r.rejectedSHA)
	})
	if sha == "" { // the file could not be opened
		return false, r.fail(err)
	}
	if snap == nil && err == nil {
		// Not worth decoding: refresh the stat memo, keep the generation.
		r.lastMod, r.lastSize = st.ModTime(), st.Size()
		return false, nil
	}

	reject := func(err error) (bool, error) {
		// Remember the bad file's identity so steady-state failure costs
		// one stat per poll, not a full rebuild.
		r.lastMod, r.lastSize, r.rejectedSHA = st.ModTime(), st.Size(), sha
		return false, r.fail(err)
	}
	if err != nil {
		return reject(err)
	}
	gen, err := r.srv.Prepare(snap, serve.SnapshotMeta{Path: r.cfg.Path, SHA256: sha})
	if err != nil {
		return reject(err)
	}
	if err := r.canary(gen); err != nil {
		return reject(fmt.Errorf("canary validation: %w", err))
	}

	r.srv.Install(gen)
	r.lastMod, r.lastSize, r.lastSHA, r.rejectedSHA = st.ModTime(), st.Size(), sha, ""
	r.swaps.Add(1)
	swapTime := time.Now()
	r.lastSwap.Store(&swapTime)
	r.lastErr.Store(nil)
	return true, nil
}

// fail records a rejected reload and passes the error through.
func (r *Reloader) fail(err error) error {
	r.failures.Add(1)
	msg := err.Error()
	r.lastErr.Store(&msg)
	return err
}

// canary validates a candidate generation before it may serve: a
// deterministic sample of its own canonical strings must each resolve
// back to their entity, and every configured canary query must produce
// at least one match. This catches the failure class a checksum cannot
// — a snapshot that parses but was mined against the wrong catalog,
// stripped of its dictionary, or built with a broken index.
func (r *Reloader) canary(gen *serve.Generation) error {
	eng := gen.Engine()
	canonicals := gen.Canonicals()
	if n := r.cfg.CanarySample; n > 0 && len(canonicals) > 0 {
		stride := len(canonicals) / n
		if stride < 1 {
			stride = 1
		}
		for id := 0; id < len(canonicals); id += stride {
			if err := expectEntity(eng, canonicals[id], id); err != nil {
				return err
			}
		}
	}
	for _, q := range r.cfg.Canary {
		res, err := eng.Match(match.Request{Query: q})
		if err != nil {
			return fmt.Errorf("query %q: %w", q, err)
		}
		if len(res.Matches) == 0 {
			return fmt.Errorf("query %q matched nothing", q)
		}
	}
	return nil
}

// expectEntity requires the engine to resolve a canonical string back to
// its entity, as the top match or an alternate (ambiguous canonicals —
// "Madagascar" vs the franchise — may rank another entity first).
func expectEntity(eng *match.Engine, canonical string, id int) error {
	res, err := eng.Match(match.Request{Query: canonical})
	if err != nil {
		return fmt.Errorf("canonical %q: %w", canonical, err)
	}
	for _, m := range res.Matches {
		if m.EntityID == id {
			return nil
		}
		for _, alt := range m.Alternates {
			if alt.EntityID == id {
				return nil
			}
		}
	}
	return fmt.Errorf("canonical %q did not resolve to entity %d", canonical, id)
}

// Status returns a point-in-time view of the reloader's counters.
func (r *Reloader) Status() Status {
	s := Status{
		Path:     r.cfg.Path,
		Checks:   r.checks.Load(),
		Swaps:    r.swaps.Load(),
		Failures: r.failures.Load(),
	}
	if r.cfg.Interval > 0 {
		s.Interval = r.cfg.Interval.String()
	}
	if msg := r.lastErr.Load(); msg != nil {
		s.LastError = *msg
	}
	s.LastCheck = r.lastCheck.Load()
	s.LastSwap = r.lastSwap.Load()
	return s
}

// reloadResult is the JSON shape of POST /admin/reload.
type reloadResult struct {
	Swapped bool `json:"swapped"`
	// Generation and Snapshot describe the live state after the call
	// (the new generation on a swap, the kept one otherwise).
	Generation uint64             `json:"generation"`
	Snapshot   serve.SnapshotMeta `json:"snapshot"`
	Error      string             `json:"error,omitempty"`
}

// Mount registers the reload admin surface on mux:
//
//	POST /admin/reload          — reload now ("?force=1" reinstalls even
//	                              unchanged bytes); 200 with {"swapped":
//	                              true|false} on success, 422 with the
//	                              rejection when the new snapshot is
//	                              unusable (the old one keeps serving)
//	GET  /admin/reload/status   — watcher counters and last error
func (r *Reloader) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /admin/reload", r.handleReload)
	mux.HandleFunc("GET /admin/reload/status", r.handleStatus)
}

func (r *Reloader) handleReload(w http.ResponseWriter, req *http.Request) {
	force := req.URL.Query().Get("force") == "1"
	swapped, err := r.reload(force, true)
	info := r.srv.SnapshotInfo()
	out := reloadResult{Swapped: swapped, Generation: info.Generation, Snapshot: info.Snapshot}
	if err != nil {
		out.Error = err.Error()
		writeJSON(w, http.StatusUnprocessableEntity, out)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (r *Reloader) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, r.Status())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("reload: encoding response: %v", err)
	}
}
