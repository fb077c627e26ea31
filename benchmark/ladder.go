package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"websyn/internal/fleet/wire"
	"websyn/internal/match"
	"websyn/internal/rewrite"
	"websyn/internal/serve"
	"websyn/internal/textnorm"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Parent names the rung that wraps this one in a real request:
// rungs are replayed one pass each, so the link is by name, not by id.
type span struct {
	Name   string `json:"name"`
	Query  int    `json:"query_id"`
	Start  int64  `json:"start"` // ns since the trace began
	End    int64  `json:"end"`
	Parent string `json:"parent,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// do times fn as one span.
func (t *tracer) do(name, parent string, qid int, fn func()) {
	s := time.Since(t.t0)
	fn()
	e := time.Since(t.t0)
	t.spans = append(t.spans, span{name, qid, int64(s), int64(e), parent})
}

// medianNS returns the median duration of the spans called name, and how
// many there were.
func (t *tracer) medianNS(name string) (float64, int) {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start))
		}
	}
	return percentile(d, 0.5), len(d)
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mallocs counts the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// ladder is the per-layer half of a traced run: it replays the
// workload's queries in-process, one pass per rung, each rung calling one
// layer's public entry point. out receives the metrics.
type ladder struct {
	t       *tracer
	p       *prepared
	be      backend
	queries []int // indexes into p.Answers.Queries replayed by every rung
	snaps   map[string]*serve.Snapshot
	out     map[string]float64
}

// serverFor returns the in-process Server that owns q's dictionary, and
// that dictionary's snapshot.
func (l *ladder) serverFor(servers map[string]*serve.Server, q query) (*serve.Server, *serve.Snapshot) {
	return servers[q.SrcDomain], l.snaps[q.SrcDomain]
}

// rung runs fn once per replayed query accepted by keep, as spans called
// name, and stores the median under the metric of the same name + "_ns".
func (l *ladder) rung(name, parent string, keep func(query) bool, prep func(q query) func()) {
	for _, qi := range l.queries {
		q := l.p.Answers.Queries[qi]
		if keep != nil && !keep(q) {
			continue
		}
		l.t.do(name, parent, qi, prep(q))
	}
	l.out[name+"_ns"], _ = l.t.medianNS(name)
}

func notV2(q query) bool { return !q.V2() }

func (l *ladder) run() error {
	qs := l.p.Answers.Queries
	domains := l.p.Corpus.Domains

	// One cache-less Server per domain: the serving engine and DoView.
	servers := map[string]*serve.Server{}
	cached := map[string]*serve.Server{}
	l.snaps = map[string]*serve.Snapshot{}
	for _, d := range domains {
		l.snaps[d.Name] = d.Snap
		servers[d.Name] = serve.NewServer(d.Snap, serve.Config{CacheSize: -1})
		cached[d.Name] = serve.NewServer(d.Snap, serve.Config{CacheSize: 8 * len(l.queries)})
	}

	// bench.trace_overhead_ns: what an empty span costs.
	for i := 0; i < 2000; i++ {
		l.t.do("bench.trace_overhead", "", -1, func() {})
	}
	l.out["bench.trace_overhead_ns"], _ = l.t.medianNS("bench.trace_overhead")

	// textnorm
	var sinkTokens []string
	l.rung("textnorm.tokenize", "match.engine", nil, func(q query) func() {
		return func() { sinkTokens = textnorm.Tokenize(q.Text) }
	})
	_ = sinkTokens

	// match: trie segmentation and whole-string fuzzy lookup
	l.rung("match.segment", "match.engine", nil, func(q query) func() {
		_, snap := l.serverFor(servers, q)
		toks := textnorm.Tokenize(q.Text)
		return func() { snap.Dict.SegmentTokens(toks) }
	})
	fuzzy := map[string]*match.FuzzyIndex{}
	for _, d := range domains {
		fi, err := d.Snap.Dict.NewFuzzyIndexFromPacked(d.Snap.Fuzzy, d.Snap.MinSim)
		if err != nil {
			return err
		}
		fuzzy[d.Name] = fi
		l.out["match.index_strings"] += float64(d.Snap.Fuzzy.NumStrings)
		l.out["match.index_grams"] += float64(len(d.Snap.Fuzzy.Grams))
		l.out["match.index_postings"] += float64(len(d.Snap.Fuzzy.Postings))
	}
	l.rung("match.fuzzy_lookup", "match.engine", nil, func(q query) func() {
		fi, norm := fuzzy[q.SrcDomain], textnorm.Normalize(q.Text)
		return func() { fi.Lookup(norm, match.DefaultTopK) }
	})

	// match: the serving engine, per class, on a pooled scratch
	sc := match.NewScratch()
	engine := func(q query) func() {
		srv, _ := l.serverFor(servers, q)
		eng, req := srv.Engine(), match.Request{Query: q.Text, Rewrite: q.V2()}
		return func() {
			if _, err := eng.MatchScratch(req, sc); err != nil {
				panic(err) // generated queries are never empty
			}
		}
	}
	var engAllocs uint64
	engN := 0
	for _, qi := range l.queries {
		q := qs[qi]
		fn := engine(q)
		l.t.do("match.engine."+q.Class, "serve.doview_nocache", qi, fn)
		if !q.V2() {
			engAllocs += mallocs(fn)
			engN++
		}
	}
	for _, c := range v1Classes {
		l.out["match.engine_ns."+c], _ = l.t.medianNS("match.engine." + c)
	}
	l.out["match.engine_allocs"] = float64(engAllocs) / float64(max(engN, 1))
	for _, c := range []string{classExact, classTypo, classSpanFuzzy} {
		l.out["match.recall."+c] = l.p.Answers.recall(c)
	}

	// rewrite: the attribute stage on what the engine left unmatched
	preds, rewrites := 0, 0
	rewriters := map[string]*rewrite.Rewriter{}
	for _, d := range domains {
		if d.Snap.Vocab != nil {
			rewriters[d.Name] = rewrite.NewRewriter(d.Snap.Vocab, d.Snap.MinSim)
		}
	}
	l.rung("rewrite.tokens", "match.engine", query.V2, func(q query) func() {
		srv, snap := l.serverFor(servers, q)
		rw := rewriters[q.SrcDomain]
		toks := textnorm.Tokenize(q.Text)
		used := make([]bool, len(toks))
		if res, err := srv.Engine().MatchScratch(match.Request{Query: q.Text}, sc); err == nil {
			for _, m := range res.Matches {
				for i := m.Start; i < m.End && i < len(used); i++ {
					used[i] = true
				}
			}
		}
		return func() {
			preds += len(rw.RewriteTokens(toks, used, snap.MinSim, nil))
			rewrites++
		}
	})
	l.out["rewrite.predicates_per_query"] = float64(preds) / float64(max(rewrites, 1))

	// serve: DoView with the cache off, cold and warm
	noop := func(*match.Response, bool) {}
	doview := func(set map[string]*serve.Server) func(query) func() {
		return func(q query) func() {
			srv, _ := l.serverFor(set, q)
			req := match.Request{Query: q.Text}
			return func() {
				if err := srv.DoView(req, noop); err != nil {
					panic(err)
				}
			}
		}
	}
	l.rung("serve.doview_nocache", "serve.registry_routed", notV2, doview(servers))
	l.rung("serve.doview_miss", "serve.registry_routed", notV2, doview(cached))
	l.rung("serve.doview_hit", "serve.registry_routed", notV2, doview(cached))

	// serve: the routing backend the workload's servers run
	l.rung("serve.registry_routed", "serve.http_v1", notV2, func(q query) func() {
		req := match.Request{Query: q.Text}
		if l.p.W.Tier == tierToy || l.p.W.Fleet {
			req.Domain = q.SrcDomain
		}
		return func() { l.be.DoItem(req, nil) }
	})
	if _, ok := l.be.(*serve.Registry); ok {
		l.rung("serve.registry_federated", "serve.http_v1", notV2, func(q query) func() {
			req := match.Request{Query: q.Text}
			return func() { l.be.DoItem(req, []string{federated}) }
		})
	} else {
		l.out["serve.registry_federated_ns"] = 0
	}

	// serve: the HTTP handler on a recorder, no socket
	handler := l.be.Handler()
	sub := make([]query, len(l.queries))
	for i, qi := range l.queries {
		sub[i] = qs[qi]
	}
	var respBytes, httpAllocs uint64
	httpN := 0
	serveHTTP := func(name string, r request) {
		req := httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body))
		rec := httptest.NewRecorder()
		l.t.do(name, "", r.Items[0], func() { handler.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			panic(fmt.Sprintf("%s: status %d: %s", name, rec.Code, rec.Body.String()))
		}
		if name == "serve.http_v1" {
			respBytes += uint64(rec.Body.Len())
			req = httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body))
			rec = httptest.NewRecorder()
			httpAllocs += mallocs(func() { handler.ServeHTTP(rec, req) })
			httpN++
		}
	}
	for _, r := range encodeRequests(&workload{Batch: 1}, sub) {
		name := "serve.http_v1"
		if r.Path == "/v2/match" {
			name = "serve.http_v2"
		}
		serveHTTP(name, r)
	}
	for _, r := range encodeRequests(&workload{Batch: batchSize}, sub) {
		serveHTTP("serve.http_batch64", r)
	}
	l.out["serve.http_v1_ns"], _ = l.t.medianNS("serve.http_v1")
	l.out["serve.http_v2_ns"], _ = l.t.medianNS("serve.http_v2")
	b64, _ := l.t.medianNS("serve.http_batch64")
	l.out["serve.http_batch64_ns"] = b64 / batchSize // per item
	l.out["serve.http_v1_allocs"] = float64(httpAllocs) / float64(max(httpN, 1))
	l.out["serve.http_v1_resp_bytes"] = float64(respBytes) / float64(max(httpN, 1))

	// serve: opening a snapshot and preparing a generation, summed over
	// the tier's domains, median of three
	if err := l.snapshotRungs(servers); err != nil {
		return err
	}

	// fleet/wire: the codec on this workload's requests and results
	var buf, rbuf []byte
	var resultBytes uint64
	for _, qi := range l.queries {
		req, doms := matchRequest(qs[qi])
		l.t.do("wire.encode_request", "fleet.wire_rtt", qi, func() { buf = wire.AppendRequest(buf[:0], req, doms) })
		l.t.do("wire.decode_request", "fleet.wire_rtt", qi, func() {
			if _, _, err := wire.DecodeRequest(buf); err != nil {
				panic(err)
			}
		})
		v := l.be.DoItem(req, doms)
		res := wire.Result{Response: v.Response, Cached: v.Cached, Err: v.Error}
		l.t.do("wire.encode_result", "fleet.wire_rtt", qi, func() { rbuf = wire.AppendResult(rbuf[:0], res) })
		l.t.do("wire.decode_result", "fleet.wire_rtt", qi, func() {
			if _, err := wire.DecodeResult(rbuf); err != nil {
				panic(err)
			}
		})
		resultBytes += uint64(len(rbuf))
	}
	for _, n := range []string{"wire.encode_request", "wire.decode_request", "wire.encode_result", "wire.decode_result"} {
		l.out[n+"_ns"], _ = l.t.medianNS(n)
	}
	l.out["wire.result_bytes"] = float64(resultBytes) / float64(max(len(l.queries), 1))
	return nil
}

// snapshotRungs times ReadSnapshotFile, OpenSnapshotMapped and
// Server.Prepare on the workload's own snapshot files.
func (l *ladder) snapshotRungs(servers map[string]*serve.Server) error {
	var read, mapped, prepare []float64
	for rep := 0; rep < 3; rep++ {
		var r, m, p time.Duration
		for _, d := range l.p.Corpus.Domains {
			t0 := time.Now()
			if _, err := serve.ReadSnapshotFile(d.Path); err != nil {
				return err
			}
			r += time.Since(t0)
			t0 = time.Now()
			snap, err := serve.OpenSnapshotMapped(d.Path)
			if err != nil {
				return err
			}
			m += time.Since(t0)
			t0 = time.Now()
			if _, err := servers[d.Name].Prepare(snap, serve.SnapshotMeta{}); err != nil {
				return err
			}
			p += time.Since(t0)
		}
		read, mapped, prepare = append(read, float64(r)), append(mapped, float64(m)), append(prepare, float64(p))
	}
	l.out["serve.snapshot_read_ns"], _ = medianSpread(read)
	l.out["serve.snapshot_mmap_ns"], _ = medianSpread(mapped)
	l.out["serve.prepare_ns"], _ = medianSpread(prepare)
	for _, d := range l.p.Corpus.Domains {
		fi, err := os.Stat(d.Path)
		if err != nil {
			return err
		}
		l.out["serve.snapshot_bytes"] += float64(fi.Size())
	}
	return nil
}

// wireRTT speaks WFP1 straight to one replica's -fleet-addr and times
// each request/response frame pair. Every query is sent twice and the
// second exchange timed, so a caching replica answers from its cache and
// the number is the hop, not the engine behind it.
func (l *ladder) wireRTT() error {
	conn, err := net.DialTimeout("tcp", l.p.FleetTo, 2*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, wire.Magic); err != nil {
		return err
	}
	var payload, reply []byte
	var ioErr error
	for _, qi := range l.queries {
		q := l.p.Answers.Queries[qi]
		if q.V2() {
			continue
		}
		req, doms := matchRequest(q)
		payload = wire.AppendRequest(append(payload[:0], wire.OpMatch), req, doms)
		exchange := func() {
			if ioErr = wire.WriteFrame(conn, payload); ioErr == nil {
				reply, ioErr = wire.ReadFrame(conn, reply[:0])
			}
		}
		if exchange(); ioErr == nil {
			l.t.do("fleet.wire_rtt", "", qi, exchange)
		}
		if ioErr != nil {
			return ioErr
		}
		if len(reply) == 0 || reply[0] != wire.OpResult {
			return fmt.Errorf("wire: unexpected reply opcode to query %q", q.Text)
		}
	}
	l.out["fleet.wire_rtt_ns"], _ = l.t.medianNS("fleet.wire_rtt")
	return nil
}

// ---- counters read from the running servers ----

// statsz fetches a server's /statsz as a generic tree.
func statsz(c *child) (map[string]any, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get(c.URL + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("%s /statsz: %w", c.Name, err)
	}
	return m, nil
}

// num walks path through nested JSON objects; 0 when absent.
func num(m map[string]any, path ...string) float64 {
	var cur any = m
	for _, k := range path {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = obj[k]
	}
	f, _ := cur.(float64)
	return f
}

// replicaCounters flattens the counters the ladder reads out of one
// matchd's /statsz, whichever shape (single Server or Registry) it has.
func replicaCounters(m map[string]any) map[string]float64 {
	out := map[string]float64{}
	add := func(s map[string]any) {
		for _, k := range []string{"hits", "misses", "evictions", "singleflight_shared"} {
			out[k] += num(s, "cache", k)
		}
		out["routed"] += num(s, "requests", "routed_queries")
	}
	if doms, ok := m["domains"].(map[string]any); ok {
		names := make([]string, 0, len(doms))
		for name := range doms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if s, ok := doms[name].(map[string]any); ok {
				add(s)
			}
		}
	} else {
		add(m)
	}
	return out
}

// counters snapshots every replica's counters and the router's.
type counters struct {
	Replicas []map[string]float64
	Router   map[string]any
}

func readCounters(p *prepared) (*counters, error) {
	c := &counters{}
	for _, r := range p.Replicas {
		m, err := statsz(r)
		if err != nil {
			return nil, err
		}
		c.Replicas = append(c.Replicas, replicaCounters(m))
	}
	if p.W.Fleet {
		m, err := statsz(p.Servers[len(p.Servers)-1])
		if err != nil {
			return nil, err
		}
		c.Router = m
	}
	return c, nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics turns the change in the servers' counters across the
// measured phase into the serve.cache_* and fleet.* metrics.
func counterMetrics(before, after *counters, out map[string]float64) {
	d := map[string]float64{}
	routedMax, routedSum := 0.0, 0.0
	for i := range after.Replicas {
		for k, v := range after.Replicas[i] {
			d[k] += v - before.Replicas[i][k]
		}
		r := after.Replicas[i]["routed"] - before.Replicas[i]["routed"]
		routedMax, routedSum = max(routedMax, r), routedSum+r
	}
	out["serve.cache_hit_ratio"] = ratio(d["hits"], d["hits"]+d["misses"])
	out["serve.cache_evictions"] = d["evictions"]
	out["serve.singleflight_shared"] = d["singleflight_shared"]
	out["fleet.replica_share_max"] = ratio(routedMax, routedSum)

	rd := func(k string) float64 { return num(after.Router, k) - num(before.Router, k) }
	q := rd("queries")
	out["fleet.hedge_ratio"] = ratio(rd("hedges"), q)
	out["fleet.hedge_win_ratio"] = ratio(rd("hedge_wins"), rd("hedges"))
	out["fleet.retry_ratio"] = ratio(rd("retries"), q)
	out["fleet.failures"] = rd("failures")
}
