package reload

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"websyn/internal/loadtest"
	"websyn/internal/serve"
)

// TestReloadUnderSustainedLoad is the zero-downtime acceptance test:
// a loadtest workload runs continuously against the server while ten
// snapshot swaps land, alternating snapshot layout versions (v2 -> v1
// -> v2 -> ...) so the crossgrade path is exercised under traffic too.
// Every request must succeed — no transport errors, no non-200s — and
// the generation counters must account for exactly ten swaps.
//
// Run with -race this doubles as the concurrency proof for the
// generation handle: request goroutines read the engine/cache while the
// reloader publishes new generations.
func TestReloadUnderSustainedLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dict.snap")
	srv, r := bootServer(t, path)

	mux := http.NewServeMux()
	srv.Mount(mux)
	r.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	snap, err := serve.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := loadtest.FromSnapshot(snap, 1)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		rep *loadtest.Report
		err error
	}
	resc := make(chan result, 1)
	go func() {
		rep, err := loadtest.Run(ctx, w, loadtest.Options{
			URL:         ts.URL,
			QPS:         400,
			Concurrency: 6,
		})
		resc <- result{rep, err}
	}()

	// Let traffic establish, then land ten swaps while it flows.
	time.Sleep(50 * time.Millisecond)
	const swaps = 10
	for i := 1; i <= swaps; i++ {
		snap := testSnapshot(fmt.Sprintf("swap %d", i))
		if i%2 == 1 {
			snap.Fuzzy = nil // alternate embedded and rebuilt fuzzy indexes
		}
		writeSnapshot(t, snap, path)
		swapped, err := r.Reload(false)
		if err != nil || !swapped {
			t.Fatalf("swap %d: swapped %v, err %v", i, swapped, err)
		}
		time.Sleep(20 * time.Millisecond) // traffic on the new generation
	}
	time.Sleep(50 * time.Millisecond)
	cancel()
	res := <-resc
	if res.err != nil {
		t.Fatal(res.err)
	}

	rep := res.rep
	if rep.Requests < 100 {
		t.Fatalf("only %d requests landed; the load never sustained", rep.Requests)
	}
	if rep.Failed() {
		t.Fatalf("requests failed across swaps: %d errors, %d non-200 of %d total",
			rep.Errors, rep.Non200, rep.Requests)
	}

	st := srv.Stats()
	if st.Swaps != swaps {
		t.Fatalf("swap counter %d, want %d", st.Swaps, swaps)
	}
	if st.Generation != swaps+1 {
		t.Fatalf("generation %d, want %d", st.Generation, swaps+1)
	}
	if status := r.Status(); status.Swaps != swaps || status.Failures != 0 {
		t.Fatalf("reloader status: %+v", status)
	}
	// The last swap installed generation 11 from a v2 file.
	if st.SnapshotVersion != serve.SnapshotVersion {
		t.Fatalf("final snapshot version %d, want %d", st.SnapshotVersion, serve.SnapshotVersion)
	}
	t.Logf("served %d requests over %d swaps: p50 %.2fms p95 %.2fms p99 %.2fms",
		rep.Requests, swaps, rep.Latency.P50, rep.Latency.P95, rep.Latency.P99)
}
