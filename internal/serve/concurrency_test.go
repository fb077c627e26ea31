package serve

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"websyn/internal/match"
)

// TestFlightGroupBasics pins the join/finish protocol: first joiner
// leads, later joiners follow into the same call, finish releases them
// with the leader's result (or error), and a finished key starts a
// fresh flight.
func TestFlightGroupBasics(t *testing.T) {
	var fg flightGroup
	c1, leader := fg.join([]byte("k"))
	if !leader {
		t.Fatal("first join is not the leader")
	}
	c2, leader2 := fg.join([]byte("k"))
	if leader2 || c2 != c1 {
		t.Fatalf("second join: leader=%v call-shared=%v", leader2, c2 == c1)
	}
	got := make(chan match.Response, 1)
	go func() {
		res, err := c2.wait()
		if err != nil {
			t.Errorf("wait: %v", err)
		}
		got <- res
	}()
	fg.finish(c1, match.Response{Query: "v"}, nil)
	if res := <-got; res.Query != "v" {
		t.Fatalf("follower got %+v", res)
	}
	if fg.shared.Load() != 1 {
		t.Fatalf("shared = %d, want 1", fg.shared.Load())
	}

	// The key is free again: the next join leads a new flight, and an
	// error propagates to its followers.
	c3, leader3 := fg.join([]byte("k"))
	if !leader3 {
		t.Fatal("join after finish did not lead")
	}
	fg.finish(c3, match.Response{}, errors.New("boom"))
	if _, err := c3.wait(); err == nil || err.Error() != "boom" {
		t.Fatalf("error not propagated: %v", err)
	}
	// A solo flight (no waiters) is not counted as shared.
	if fg.shared.Load() != 1 {
		t.Fatalf("shared = %d after solo flight, want 1", fg.shared.Load())
	}
}

// TestFlightGroupConcurrentJoin races K goroutines joining one key:
// exactly one may lead, and every follower must observe the leader's
// result.
func TestFlightGroupConcurrentJoin(t *testing.T) {
	var fg flightGroup
	const K = 32
	var leaders atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c, leader := fg.join([]byte("hot"))
			if leader {
				leaders.Add(1)
				fg.finish(c, match.Response{Query: "answer"}, nil)
				return
			}
			if res, err := c.wait(); err != nil || res.Query != "answer" {
				t.Errorf("follower got %+v, %v", res, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	// Depending on interleaving several flights may run back to back
	// (a goroutine joining after a finish leads a new flight), but
	// within any one flight there is exactly one leader — so leaders
	// can never exceed K and never reach zero.
	if n := leaders.Load(); n < 1 || n > K {
		t.Fatalf("leaders = %d", n)
	}
}

// TestSingleflightCollapsesMisses is the deterministic exactly-one-run
// proof for the serve path: the test itself takes the leadership of a
// key, parks K concurrent identical uncached requests on the flight,
// then runs the engine once and publishes. All K requests must complete
// with that one run's response — K duplicate misses, one engine
// invocation — and the flight counters must say so.
func TestSingleflightCollapsesMisses(t *testing.T) {
	s := NewServer(testSnapshot(), Config{CacheSize: 64})
	g := s.gen.Load()
	const query = "showtimes for indy 4 near san francisco"
	req := match.Request{Query: query}.WithDefaults()
	sc := match.NewScratch()
	sc.Tokenize(query)
	key := appendRequestKey(nil, req, sc.Norm())

	c, leader := g.flight.join(key)
	if !leader {
		t.Fatal("test could not take flight leadership")
	}

	const K = 16
	var wg sync.WaitGroup
	got := make([]match.Response, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := s.DoView(match.Request{Query: query}, func(res *match.Response, cached bool) {
				if cached {
					t.Error("follower reported a cache hit")
				}
				got[i] = match.CloneResponse(res)
			})
			if err != nil {
				t.Errorf("DoView: %v", err)
			}
		}(i)
	}

	// Every request misses the cache and joins the in-flight call; wait
	// until all K are parked.
	deadline := time.Now().Add(10 * time.Second)
	for c.waiters.Load() < K {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests joined the flight", c.waiters.Load(), K)
		}
		time.Sleep(time.Millisecond)
	}

	// The one and only engine run.
	res, err := g.engine.MatchPrepared(req, sc)
	if err != nil {
		t.Fatal(err)
	}
	stable := match.CloneResponse(res)
	g.cache.Put(key, stable)
	g.flight.finish(c, stable, nil)
	wg.Wait()

	for i := range got {
		if !reflect.DeepEqual(got[i], stable) {
			t.Fatalf("request %d diverged from the leader's response:\n got %+v\nwant %+v", i, got[i], stable)
		}
	}
	if hits := g.flight.hits.Load(); hits != K {
		t.Fatalf("singleflight_hits = %d, want %d (every duplicate miss collapsed)", hits, K)
	}
	if shared := g.flight.shared.Load(); shared != 1 {
		t.Fatalf("singleflight_shared = %d, want 1", shared)
	}
	// The flight is over and the response cached: the next request is a
	// plain cache hit, no new flight.
	var cachedHit bool
	if err := s.DoView(match.Request{Query: query}, func(_ *match.Response, cached bool) { cachedHit = cached }); err != nil {
		t.Fatal(err)
	}
	if !cachedHit {
		t.Fatal("response not cached after the flight")
	}
	st := s.Stats()
	if st.Cache.SingleflightHits != K || st.Cache.SingleflightShared != 1 {
		t.Fatalf("/statsz singleflight counters = %d/%d, want %d/1",
			st.Cache.SingleflightHits, st.Cache.SingleflightShared, K)
	}
}

// TestCacheStormAcrossInstall hammers one hot key plus a churn of
// unique (miss) keys from many goroutines while the main goroutine
// hot-swaps generations whose dictionaries resolve the probe query
// differently. Cache shards and the singleflight group are both
// generation-scoped, so no request may ever observe a stale
// generation's response under a fresh generation — after an Install
// returns, a fresh Do must answer from the new dictionary. Run with
// -race this is the data-race proof for the sharded CLOCK cache and
// flight group under install churn.
func TestCacheStormAcrossInstall(t *testing.T) {
	s := NewServer(probeSnapshot(0), Config{CacheSize: 128})
	hot := match.Request{Query: "probe target tickets"}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// The hot key: every goroutine hammers the same query, so
				// hits, misses and flight joins all race across installs.
				err := s.DoView(hot, func(res *match.Response, _ bool) {
					if len(res.Matches) != 1 || res.Matches[0].EntityID > 1 ||
						res.Matches[0].Span != "probe target" || res.Remainder != "tickets" {
						t.Errorf("torn hot response: %+v", res)
					}
				})
				if err != nil {
					t.Errorf("DoView(hot): %v", err)
					return
				}
				// A churning unique key: always a miss on some shard, so
				// CLOCK eviction runs concurrently with the hot hits.
				miss := match.Request{Query: fmt.Sprintf("probe target run %d lap %d", w, i)}
				err = s.DoView(miss, func(res *match.Response, _ bool) {
					if len(res.Matches) != 1 || res.Matches[0].EntityID > 1 ||
						res.Matches[0].Span != "probe target" {
						t.Errorf("torn miss response: %+v", res)
					}
				})
				if err != nil {
					t.Errorf("DoView(miss): %v", err)
					return
				}
				served.Add(1)
			}
		}(w)
	}

	const swaps = 10
	for i := 1; i <= swaps; i++ {
		entity := i % 2
		gen, err := s.Prepare(probeSnapshot(entity), SnapshotMeta{})
		if err != nil {
			t.Fatal(err)
		}
		s.Install(gen)
		// The moment Install returns, a fresh request must see the new
		// generation's entity: a cache or flight shared across
		// generations would keep serving the old one.
		res, err := s.Do(hot)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 1 || res.Matches[0].EntityID != entity {
			t.Fatalf("after install %d: got entity %+v, want %d", i, res.Matches, entity)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no requests served during the install storm")
	}
	// The final generation's cache took the post-storm traffic; its
	// stats must be coherent (sizes within capacity, counters moving).
	st := s.Stats()
	if st.Cache.Size > st.Cache.Capacity {
		t.Fatalf("cache size %d exceeds capacity %d", st.Cache.Size, st.Cache.Capacity)
	}
}
