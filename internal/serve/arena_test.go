package serve

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"websyn/internal/match"
)

// TestDoViewMatchesDo pins the view-based API to the copying one: for
// every mode and cache configuration, the response DoView exposes
// during visit must equal what Do returns.
func TestDoViewMatchesDo(t *testing.T) {
	for _, cache := range []int{-1, 64} {
		s := NewServer(testSnapshot(), Config{CacheSize: cache})
		for _, mode := range []match.Mode{match.ModeSegment, match.ModeSpan, match.ModeFuzzy} {
			for _, q := range []string{
				"showtimes for indy 4 near san francisco",
				"madagascar 2 trailer",
				"kingdom of the crystal skul",
				"",
			} {
				req := match.Request{Query: q, Mode: mode, TopK: 3, Explain: true}
				want, errWant := s.Do(req)
				var got match.Response
				var visited bool
				errGot := s.DoView(req, func(res *match.Response, _ bool) {
					visited = true
					got = match.CloneResponse(res)
				})
				if (errWant == nil) != (errGot == nil) {
					t.Fatalf("cache=%d %s %q: error divergence: Do=%v DoView=%v", cache, mode, q, errWant, errGot)
				}
				if errWant != nil {
					if visited {
						t.Fatalf("cache=%d %s %q: visit ran despite error", cache, mode, q)
					}
					continue
				}
				want.Timing, got.Timing = match.Timing{}, match.Timing{}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("cache=%d %s %q: DoView diverged from Do:\n got %+v\nwant %+v", cache, mode, q, got, want)
				}
			}
		}
	}
}

// TestDoViewMatchesDoRewrite extends the differential to v2 requests:
// a view of the rewrite stage's output (matchCtx.rewritePass) must be
// identical to Do's detached copy, attributes and residual included.
func TestDoViewMatchesDoRewrite(t *testing.T) {
	for _, cache := range []int{-1, 64} {
		snap := testSnapshot()
		snap.Vocab = testVocabulary()
		s := NewServer(snap, Config{CacheSize: cache})
		for _, q := range []string{
			"indiana jones 4 2008 adventure tickets",
			"madagascar 2 before 2009 comedy",
			"recent adventur indy 4", // band + fuzzy genre
			"nothing structured at all",
		} {
			req := match.Request{Query: q, Mode: match.ModeSpan, TopK: 3, Explain: true, Rewrite: true}
			want, errWant := s.Do(req)
			var got match.Response
			errGot := s.DoView(req, func(res *match.Response, _ bool) {
				got = match.CloneResponse(res)
			})
			if errWant != nil || errGot != nil {
				t.Fatalf("cache=%d %q: Do=%v DoView=%v", cache, q, errWant, errGot)
			}
			want.Timing, got.Timing = match.Timing{}, match.Timing{}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("cache=%d %q: rewrite DoView diverged from Do:\n got %+v\nwant %+v", cache, q, got, want)
			}
		}
	}
}

// TestArenaScratchAcrossInstall hammers the uncached (arena-backed)
// DoView path from several goroutines while the main goroutine swaps
// generations. Scratch arenas are pooled per generation, so no request
// may ever observe another generation's arena contents: every response
// must be internally consistent — the probe query's one valid answer
// per generation, never a blend or a clobbered string. With -race this
// is the data-race proof for scratch pooling across Prepare/Install.
func TestArenaScratchAcrossInstall(t *testing.T) {
	s := NewServer(probeSnapshot(0), Config{CacheSize: -1})
	req := match.Request{Query: "probe target tickets"}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := s.DoView(req, func(res *match.Response, cached bool) {
					if cached {
						t.Error("cache hit with caching disabled")
						return
					}
					// The response aliases this request's arena. If another
					// request — same or different generation — were handed
					// the same scratch concurrently, these fields would tear.
					if res.Query != "probe target tickets" ||
						len(res.Matches) != 1 ||
						res.Matches[0].Span != "probe target" ||
						res.Matches[0].EntityID > 1 ||
						res.Remainder != "tickets" {
						t.Errorf("torn arena response: %+v", res)
						return
					}
					// A retained clone must stay valid after visit returns
					// and the arena is reused; verify on the next lap.
					clone := match.CloneResponse(res)
					runtime.Gosched()
					if clone.Query != "probe target tickets" || clone.Matches[0].Span != "probe target" {
						t.Errorf("clone clobbered by arena reuse: %+v", clone)
					}
				})
				if err != nil {
					t.Errorf("DoView: %v", err)
					return
				}
				served.Add(1)
			}
		}()
	}

	deadline := time.Now().Add(2 * time.Second)
	swaps := 0
	for i := 1; time.Now().Before(deadline) || swaps < 4; i++ {
		gen, err := s.Prepare(probeSnapshot(i%2), SnapshotMeta{})
		if err != nil {
			t.Fatal(err)
		}
		s.Install(gen)
		swaps++
		if swaps >= 50 && !time.Now().Before(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no requests served during the install storm")
	}
}

// TestRunPoolCoverage pins the chunked claiming logic: every index in
// [0, n) is visited exactly once for awkward worker/size combinations.
func TestRunPoolCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 16} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]atomic.Int32, n)
			runPool(workers, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestRunPoolScales asserts the worker pool actually parallelizes a
// synthetic uniform workload: 8 workers must deliver at least 2x the
// throughput of 1. This is the regression gate for the claiming
// strategy — a per-item atomic serializes workers on one cache line and
// flattens the curve. Skipped on small machines, where the speedup
// physically cannot materialize; CI's bench job runs it on full cores.
func TestRunPoolScales(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs, have %d", runtime.NumCPU())
	}
	const n = 1 << 14
	work := func(i int) {
		// ~1µs of pure CPU: small enough that claiming overhead matters,
		// big enough to be schedulable.
		x := uint64(i)
		for j := 0; j < 600; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		sinkUint.Store(x)
	}
	best := func(workers int) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			runPool(workers, n, work)
			if d := time.Since(t0); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	best(8) // warm up the scheduler
	d1, d8 := best(1), best(8)
	speedup := float64(d1) / float64(d8)
	t.Logf("runPool n=%d: workers=1 %v, workers=8 %v (%.1fx)", n, d1, d8, speedup)
	if speedup < 2 {
		t.Errorf("8 workers only %.2fx faster than 1 (want >= 2x)", speedup)
	}
}

// sinkUint defeats dead-code elimination in timing loops.
var sinkUint atomic.Uint64
