package fleet

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"websyn/internal/fleet/wire"
	"websyn/internal/match"
	"websyn/internal/serve"
)

// ReplicaSpec names one matchd replica: its wire-protocol address and,
// optionally, its HTTP admin base URL (used by the snapshot
// coordinator; empty disables admin operations for the replica).
type ReplicaSpec struct {
	Addr     string
	AdminURL string
}

// RouterConfig tunes the fleet router. Zero values get defaults.
type RouterConfig struct {
	Replicas []ReplicaSpec

	// MaxBatch caps /v1/match batch size (default 256, matching serve).
	MaxBatch int
	// Workers caps concurrent in-flight items per batch (default
	// 4×GOMAXPROCS).
	Workers int

	// RequestTimeout bounds one item end-to-end across all attempts
	// (default 2s).
	RequestTimeout time.Duration
	// HedgeDelay is the wait before launching a backup attempt. Zero
	// means adaptive: track successful-attempt latency and hedge at
	// p95, clamped to [1ms, MaxHedgeDelay].
	HedgeDelay time.Duration
	// MaxHedgeDelay clamps the adaptive hedge delay (default 100ms).
	MaxHedgeDelay time.Duration
	// MaxAttempts caps distinct replicas tried per item — primary,
	// hedges and retries together (default 3).
	MaxAttempts int

	// HealthInterval is the active-probe period per replica (default 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default 500ms).
	HealthTimeout time.Duration
	// FailAfter consecutive failures eject a replica (default 3).
	FailAfter int
	// RecoverAfter consecutive half-open probe successes re-admit an
	// ejected replica (default 2).
	RecoverAfter int

	// DialTimeout bounds one TCP dial (default 2s).
	DialTimeout time.Duration

	Logf func(format string, args ...any)
}

func (cfg RouterConfig) withDefaults() RouterConfig {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.MaxHedgeDelay <= 0 {
		cfg.MaxHedgeDelay = 100 * time.Millisecond
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = 500 * time.Millisecond
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.RecoverAfter <= 0 {
		cfg.RecoverAfter = 2
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	return cfg
}

// Router scatters /v1/match items across a fleet of matchd replicas.
// Domain-pinned items ride a consistent-hash ring (cache affinity);
// federated and domainless items round-robin, since every replica holds
// the full domain set. Failures eject replicas (see replica), slow
// primaries get hedged backups, transport errors retry on the next
// distinct replica — all within one per-item timeout.
type Router struct {
	cfg      RouterConfig
	replicas []*replica
	ring     *ring
	start    time.Time

	rr  atomic.Uint64 // round-robin cursor
	lat latWindow     // successful-attempt latency, drives adaptive hedge delay

	requests  atomic.Uint64
	queries   atomic.Uint64
	hedges    atomic.Uint64
	hedgeWins atomic.Uint64
	retries   atomic.Uint64
	failures  atomic.Uint64

	lastErrLog atomic.Int64 // unix seconds of the last transport-error log line
}

// logAttemptErr reports one attempt's transport error, at most once per
// second — enough to diagnose a sick fleet without a log line per retry
// under load.
func (r *Router) logAttemptErr(rep *replica, err error) {
	now := time.Now().Unix()
	last := r.lastErrLog.Load()
	if now == last || !r.lastErrLog.CompareAndSwap(last, now) {
		return
	}
	r.cfg.Logf("fleet: attempt on %s failed: %v", rep.addr, err)
}

// NewRouter builds a router over the configured replicas.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("fleet: router needs at least one replica")
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	r := &Router{cfg: cfg, ring: newRing(len(cfg.Replicas)), start: time.Now()}
	for _, spec := range cfg.Replicas {
		if spec.Addr == "" {
			return nil, errors.New("fleet: replica with empty address")
		}
		if seen[spec.Addr] {
			return nil, fmt.Errorf("fleet: replica %s listed twice", spec.Addr)
		}
		seen[spec.Addr] = true
		r.replicas = append(r.replicas, newReplica(spec.Addr, spec.AdminURL, cfg.DialTimeout))
	}
	return r, nil
}

// Run drives the active health-check loops until ctx is cancelled, then
// closes every replica's connection pool.
func (r *Router) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, rep := range r.replicas {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			r.healthLoop(ctx, rep)
		}(rep)
	}
	wg.Wait()
	for _, rep := range r.replicas {
		rep.client.close()
	}
}

// Mount registers the router's HTTP API: POST /v1/match and
// POST /v2/match (same request grammar as a replica; v2 additionally
// returns attribute predicates), GET /healthz (200 while ≥1 replica is
// healthy), GET /statsz.
func (r *Router) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/match", r.handleMatch(false))
	mux.HandleFunc("POST /v2/match", r.handleMatch(true))
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /statsz", r.handleStatsz)
}

// errNoReplica is the infra failure when every attempt was exhausted.
var errNoReplica = errors.New("fleet: no replica answered")

// handleMatch is POST /v1/match and, with rewrite, POST /v2/match: the
// same scatter, except that serve.ParseV1 stamps Rewrite on every item
// before it hits the wire, so replicas run attribute extraction and the
// merged results carry predicates. Clients cannot set the flag
// themselves (it has no JSON tag) — the endpoint is the API version.
func (r *Router) handleMatch(rewrite bool) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		items, domains, ok := serve.ParseV1(w, req, r.cfg.MaxBatch, rewrite)
		if !ok {
			return
		}

		r.requests.Add(1)
		r.queries.Add(uint64(len(items)))
		results := make([]serve.V1Result, len(items))
		var infraErr atomic.Pointer[error]
		r.runPool(len(items), func(i int) {
			res, err := r.doItem(req.Context(), items[i], domains)
			if err != nil {
				infraErr.CompareAndSwap(nil, &err)
				return
			}
			results[i] = res
		})
		// Per-item semantic errors (empty query, unknown domain) ride inside
		// results with a 200, exactly like a replica would answer. An infra
		// failure — every routable replica down or timed out — is the
		// router's own fault domain and must be loud: 503, so load gates and
		// clients see a failed request, not a quietly empty result.
		if errp := infraErr.Load(); errp != nil {
			r.failures.Add(1)
			serve.WriteV1Error(w, http.StatusServiceUnavailable, "%s", (*errp).Error())
			return
		}
		writeJSON(w, serve.V1Response{Count: len(results), Results: results})
	}
}

// runPool runs fn(0..n-1) on up to cfg.Workers goroutines.
func (r *Router) runPool(n int, fn func(int)) {
	workers := r.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// targetsFor picks up to MaxAttempts distinct replicas for one item, in
// preference order. Domain-pinned items use the consistent-hash ring so
// repeats of the same (domain, query) hit the same replica's request
// cache; everything else round-robins. When no replica is marked
// healthy the router fails static — it routes across the full set
// anyway, because a guess beats a guaranteed 503 while health state
// catches up with reality.
func (r *Router) targetsFor(it match.Request, domains []string) []*replica {
	healthy := func(i int) bool { return r.replicas[i].healthy.Load() }
	var idx []int
	if it.Domain != "" && len(domains) == 0 {
		key := it.Domain + "\x00" + it.Query
		idx = r.ring.order(key, r.cfg.MaxAttempts, healthy)
		if len(idx) == 0 {
			idx = r.ring.order(key, r.cfg.MaxAttempts, func(int) bool { return true })
		}
	} else {
		start := int(r.rr.Add(1))
		for pass := 0; pass < 2 && len(idx) == 0; pass++ {
			for i := 0; i < len(r.replicas) && len(idx) < r.cfg.MaxAttempts; i++ {
				j := (start + i) % len(r.replicas)
				if pass == 0 && !healthy(j) {
					continue
				}
				idx = append(idx, j)
			}
		}
	}
	out := make([]*replica, len(idx))
	for i, j := range idx {
		out[i] = r.replicas[j]
	}
	return out
}

// doItem answers one item via the fleet. The returned error is an infra
// failure (attempt exhaustion, timeout) — semantic failures come back
// inside the V1Result.
func (r *Router) doItem(ctx context.Context, it match.Request, domains []string) (serve.V1Result, error) {
	targets := r.targetsFor(it, domains)
	if len(targets) == 0 {
		return serve.V1Result{}, errNoReplica
	}
	payload := wire.AppendRequest([]byte{wire.OpMatch}, it, domains)
	res, err := r.send(ctx, targets, payload)
	if err != nil {
		return serve.V1Result{}, err
	}
	return serve.V1Result{Response: res.Response, Cached: res.Cached, Error: res.Err}, nil
}

// send runs the hedged attempt loop for one item: launch the primary;
// on transport error launch the next target immediately (retry); when
// the hedge delay passes with no answer, launch the next target anyway
// (hedge). First success wins and cancels every other in-flight
// attempt via its per-attempt context.
func (r *Router) send(ctx context.Context, targets []*replica, payload []byte) (wire.Result, error) {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.RequestTimeout)
	defer cancel()

	type outcome struct {
		res wire.Result
		err error
		idx int
		dur time.Duration
	}
	resc := make(chan outcome, len(targets))
	cancels := make([]context.CancelFunc, 0, len(targets))
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	next, pending := 0, 0
	launch := func() {
		rep := targets[next]
		idx := next
		next++
		pending++
		actx, acancel := context.WithCancel(ctx)
		cancels = append(cancels, acancel)
		go func() {
			t0 := time.Now()
			res, err := rep.client.match(actx, payload, nil)
			if actx.Err() == nil || err == nil {
				rep.reportResult(err == nil, r.cfg.FailAfter, r.cfg.RecoverAfter)
				if err != nil {
					r.logAttemptErr(rep, err)
				}
			}
			resc <- outcome{res, err, idx, time.Since(t0)}
		}()
	}
	launch()

	hedge := time.NewTimer(r.hedgeDelay())
	defer hedge.Stop()

	var lastErr error
	for {
		select {
		case out := <-resc:
			pending--
			if out.err == nil {
				r.lat.record(out.dur)
				if out.idx > 0 {
					r.hedgeWins.Add(1)
				}
				return out.res, nil
			}
			lastErr = out.err
			if ctx.Err() != nil {
				return wire.Result{}, fmt.Errorf("%w: %v", errNoReplica, lastErr)
			}
			// Transport failure: move to the next distinct replica
			// right away rather than waiting out the hedge timer.
			if next < len(targets) {
				r.retries.Add(1)
				launch()
			} else if pending == 0 {
				return wire.Result{}, fmt.Errorf("%w: %v", errNoReplica, lastErr)
			}
		case <-hedge.C:
			if next < len(targets) {
				r.hedges.Add(1)
				launch()
				// Re-arm so a still-silent fleet can hedge onto the
				// next target after another delay.
				hedge.Reset(r.hedgeDelay())
			}
		case <-ctx.Done():
			if lastErr != nil {
				return wire.Result{}, fmt.Errorf("%w: %v", errNoReplica, lastErr)
			}
			return wire.Result{}, fmt.Errorf("fleet: request timed out: %w", ctx.Err())
		}
	}
}

// hedgeDelay returns the configured fixed delay, or the adaptive
// p95-derived one.
func (r *Router) hedgeDelay() time.Duration {
	if r.cfg.HedgeDelay > 0 {
		return r.cfg.HedgeDelay
	}
	p95 := r.lat.p95()
	if p95 <= 0 {
		// Not enough samples yet: hedge late rather than double load on
		// a cold fleet.
		return r.cfg.MaxHedgeDelay
	}
	if p95 < time.Millisecond {
		return time.Millisecond
	}
	if p95 > r.cfg.MaxHedgeDelay {
		return r.cfg.MaxHedgeDelay
	}
	return p95
}

// latWindow is a fixed-size sliding window of attempt latencies.
type latWindow struct {
	mu  sync.Mutex
	buf [256]time.Duration
	n   int // filled entries
	idx int // next write position
}

func (w *latWindow) record(d time.Duration) {
	w.mu.Lock()
	w.buf[w.idx] = d
	w.idx = (w.idx + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// p95 returns the 95th-percentile latency, or 0 with fewer than 16
// samples.
func (w *latWindow) p95() time.Duration {
	w.mu.Lock()
	n := w.n
	tmp := make([]time.Duration, n)
	copy(tmp, w.buf[:n])
	w.mu.Unlock()
	if n < 16 {
		return 0
	}
	sort.Slice(tmp, func(a, b int) bool { return tmp[a] < tmp[b] })
	return tmp[(n*95)/100]
}

// ReplicaStatus is one replica's health as reported by GET /statsz.
type ReplicaStatus struct {
	Addr      string `json:"addr"`
	AdminURL  string `json:"admin_url,omitempty"`
	Healthy   bool   `json:"healthy"`
	Ejections uint64 `json:"ejections"`
}

// RouterStats is the JSON shape of the router's GET /statsz.
type RouterStats struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Replicas      []ReplicaStatus `json:"replicas"`
	Requests      uint64          `json:"requests"`
	Queries       uint64          `json:"queries"`
	Hedges        uint64          `json:"hedges"`
	HedgeWins     uint64          `json:"hedge_wins"`
	Retries       uint64          `json:"retries"`
	Failures      uint64          `json:"failures"`
	HedgeDelayMS  float64         `json:"hedge_delay_ms"`
}

// Stats returns a point-in-time view of the router.
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Requests:      r.requests.Load(),
		Queries:       r.queries.Load(),
		Hedges:        r.hedges.Load(),
		HedgeWins:     r.hedgeWins.Load(),
		Retries:       r.retries.Load(),
		Failures:      r.failures.Load(),
		HedgeDelayMS:  float64(r.hedgeDelay().Nanoseconds()) / 1e6,
	}
	for _, rep := range r.replicas {
		st.Replicas = append(st.Replicas, ReplicaStatus{
			Addr:      rep.addr,
			AdminURL:  rep.adminURL,
			Healthy:   rep.healthy.Load(),
			Ejections: rep.ejections.Load(),
		})
	}
	return st
}

// AdminURLs returns the non-empty replica admin URLs in replica order —
// the coordinator's default target set.
func (r *Router) AdminURLs() []string {
	var out []string
	for _, rep := range r.replicas {
		if rep.adminURL != "" {
			out = append(out, rep.adminURL)
		}
	}
	return out
}

// HealthySnapshot reports each replica's current health keyed by
// address (used by tests and /healthz).
func (r *Router) HealthySnapshot() map[string]bool {
	out := make(map[string]bool, len(r.replicas))
	for _, rep := range r.replicas {
		out[rep.addr] = rep.healthy.Load()
	}
	return out
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	for _, rep := range r.replicas {
		if rep.healthy.Load() {
			writeText(w, "ok\n")
			return
		}
	}
	http.Error(w, "no healthy replica", http.StatusServiceUnavailable)
}

func (r *Router) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, r.Stats())
}
