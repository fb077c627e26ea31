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
	"websyn/internal/match"
	"websyn/internal/serve"
)

// testCameraSnapshot is the second vertical for multi-domain reload
// tests; tag works like testSnapshot's.
func testCameraSnapshot(tag string) *serve.Snapshot {
	d := match.NewDictionary()
	d.Add("Canon EOS 350D", match.Entry{EntityID: 0, Score: 1, Source: "canonical"})
	d.Add("digital rebel xt", match.Entry{EntityID: 0, Score: 0.9, Source: "mined"})
	d.Add("Nikon D80", match.Entry{EntityID: 1, Score: 1, Source: "canonical"})
	if tag != "" {
		d.Add(tag, match.Entry{EntityID: 0, Score: 0.5, Source: "mined"})
	}
	return &serve.Snapshot{
		Dataset:    "Cameras",
		MinSim:     0.55,
		Canonicals: []string{"Canon EOS 350D", "Nikon D80"},
		Synonyms:   map[string][]string{},
		Dict:       d,
		Fuzzy:      d.NewFuzzyIndex(0.55).Packed(),
	}
}

// bootDomain writes a snapshot, registers it with the registry, and
// wires its reloader into the group — the per-domain slice of what
// matchd's multi-domain boot does.
func bootDomain(t *testing.T, reg *serve.Registry, group *Group, name, path string, snap *serve.Snapshot) *Reloader {
	t.Helper()
	writeSnapshot(t, snap, path)
	loaded, sha, err := serve.ReadSnapshotFileHashed(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := reg.Add(name, loaded, serve.SnapshotMeta{Path: path, SHA256: sha})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(srv, Config{Path: path, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := group.Add(name, r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestGroupAdminSurface pins the per-domain admin routing: reloads and
// status are domain-addressed, unknown domains 404, and a missing
// domain param is only acceptable when one domain is watched.
func TestGroupAdminSurface(t *testing.T) {
	dir := t.TempDir()
	reg := serve.NewRegistry(serve.Config{CacheSize: 16})
	group := NewGroup()
	moviesPath := filepath.Join(dir, "movies.snap")
	camerasPath := filepath.Join(dir, "cameras.snap")
	bootDomain(t, reg, group, "movies", moviesPath, testSnapshot(""))
	bootDomain(t, reg, group, "cameras", camerasPath, testCameraSnapshot(""))

	mux := http.NewServeMux()
	reg.Mount(mux)
	group.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// Domain param required with two domains watched.
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reload without domain: status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/admin/reload?domain=books", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("reload unknown domain: status %d", resp.StatusCode)
	}

	// A movies publish swaps movies and only movies.
	writeSnapshot(t, testSnapshot("movies gen two"), moviesPath)
	resp, err = http.Post(ts.URL+"/admin/reload?domain=movies", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("movies reload: status %d", resp.StatusCode)
	}
	moviesSrv, _ := reg.Domain("movies")
	camerasSrv, _ := reg.Domain("cameras")
	if gen, _ := moviesSrv.Generation(); gen != 2 {
		t.Fatalf("movies generation %d, want 2", gen)
	}
	if gen, _ := camerasSrv.Generation(); gen != 1 {
		t.Fatalf("cameras generation %d, want 1 (movies swap leaked)", gen)
	}
	mustMatch(t, moviesSrv, "movies gen two", 0)

	// Status: all domains keyed by name, one domain with the param.
	var statuses map[string]Status
	getJSON(t, ts.URL+"/admin/reload/status", &statuses)
	if len(statuses) != 2 || statuses["movies"].Swaps != 1 || statuses["cameras"].Swaps != 0 {
		t.Fatalf("statuses: %+v", statuses)
	}
	var st Status
	getJSON(t, ts.URL+"/admin/reload/status?domain=movies", &st)
	if st.Swaps != 1 || st.Path != moviesPath {
		t.Fatalf("movies status: %+v", st)
	}

	// A single-domain group accepts a param-less reload.
	soloReg := serve.NewRegistry(serve.Config{})
	soloGroup := NewGroup()
	soloPath := filepath.Join(dir, "solo.snap")
	bootDomain(t, soloReg, soloGroup, "solo", soloPath, testSnapshot(""))
	soloMux := http.NewServeMux()
	soloReg.Mount(soloMux)
	soloGroup.Mount(soloMux)
	soloTS := httptest.NewServer(soloMux)
	defer soloTS.Close()
	resp, err = http.Post(soloTS.URL+"/admin/reload?force=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solo reload without domain: status %d", resp.StatusCode)
	}
}

// TestGroupRunPollsAllDomains runs every watcher on its own interval
// and drops a new snapshot under each: both must be picked up
// independently.
func TestGroupRunPollsAllDomains(t *testing.T) {
	dir := t.TempDir()
	reg := serve.NewRegistry(serve.Config{})
	group := NewGroup()
	moviesPath := filepath.Join(dir, "movies.snap")
	camerasPath := filepath.Join(dir, "cameras.snap")

	// Build reloaders with polling enabled (bootDomain's are poll-less).
	writeSnapshot(t, testSnapshot(""), moviesPath)
	writeSnapshot(t, testCameraSnapshot(""), camerasPath)
	for _, d := range []struct {
		name, path string
	}{{"movies", moviesPath}, {"cameras", camerasPath}} {
		snap, sha, err := serve.ReadSnapshotFileHashed(d.path)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := reg.Add(d.name, snap, serve.SnapshotMeta{Path: d.path, SHA256: sha})
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(srv, Config{Path: d.path, Interval: 5 * time.Millisecond, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if err := group.Add(d.name, r); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); group.Run(ctx) }()

	writeSnapshot(t, testSnapshot("movies polled"), moviesPath)
	writeSnapshot(t, testCameraSnapshot("cameras polled"), camerasPath)

	moviesSrv, _ := reg.Domain("movies")
	camerasSrv, _ := reg.Domain("cameras")
	deadline := time.Now().Add(5 * time.Second)
	for {
		mg, _ := moviesSrv.Generation()
		cg, _ := camerasSrv.Generation()
		if mg == 2 && cg == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pollers never installed both snapshots: movies gen %d, cameras gen %d", mg, cg)
		}
		time.Sleep(2 * time.Millisecond)
	}
	mustMatch(t, moviesSrv, "movies polled", 0)
	mustMatch(t, camerasSrv, "cameras polled", 0)
	cancel()
	<-done
}

// TestMultiDomainReloadUnderLoad is the multi-domain zero-downtime
// acceptance test: sustained mixed-domain traffic (exact routes at both
// domains plus federated fan-outs) flows while one domain hot-swaps
// five times; every request on every domain must succeed, and the
// untouched domain must still be on its boot generation afterwards.
// With -race this is the concurrency proof for per-domain generation
// handles under the registry's fan-out path.
func TestMultiDomainReloadUnderLoad(t *testing.T) {
	dir := t.TempDir()
	reg := serve.NewRegistry(serve.Config{CacheSize: 64})
	group := NewGroup()
	moviesPath := filepath.Join(dir, "movies.snap")
	camerasPath := filepath.Join(dir, "cameras.snap")
	moviesReloader := bootDomain(t, reg, group, "movies", moviesPath, testSnapshot(""))
	bootDomain(t, reg, group, "cameras", camerasPath, testCameraSnapshot(""))

	mux := http.NewServeMux()
	reg.Mount(mux)
	group.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	moviesSnap, err := serve.ReadSnapshotFile(moviesPath)
	if err != nil {
		t.Fatal(err)
	}
	camerasSnap, err := serve.ReadSnapshotFile(camerasPath)
	if err != nil {
		t.Fatal(err)
	}
	w, err := loadtest.FromSnapshots(map[string]*serve.Snapshot{
		"movies":  moviesSnap,
		"cameras": camerasSnap,
	}, 1)
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

	// Let traffic establish, then land five movies swaps while cameras
	// serves untouched.
	time.Sleep(50 * time.Millisecond)
	const swaps = 5
	for i := 1; i <= swaps; i++ {
		writeSnapshot(t, testSnapshot(fmt.Sprintf("movies swap %d", i)), moviesPath)
		swapped, err := moviesReloader.Reload(false)
		if err != nil || !swapped {
			t.Fatalf("movies swap %d: swapped %v, err %v", i, swapped, err)
		}
		time.Sleep(50 * time.Millisecond) // traffic on the new generation
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
	// Mixed-domain traffic really exercised both verticals and the
	// federated path.
	for _, d := range []string{"movies", "cameras", loadtest.FederatedDomain} {
		if rep.ByDomain[d] == 0 {
			t.Fatalf("no %q traffic in the mixed workload: %+v", d, rep.ByDomain)
		}
	}

	moviesSrv, _ := reg.Domain("movies")
	camerasSrv, _ := reg.Domain("cameras")
	if gen, sw := moviesSrv.Generation(); gen != swaps+1 || sw != swaps {
		t.Fatalf("movies generation %d swaps %d, want %d, %d", gen, sw, swaps+1, swaps)
	}
	if gen, sw := camerasSrv.Generation(); gen != 1 || sw != 0 {
		t.Fatalf("cameras generation %d swaps %d — movies swaps leaked across domains", gen, sw)
	}
	mustMatch(t, moviesSrv, fmt.Sprintf("movies swap %d", swaps), 0)
	if statuses := group.Statuses(); statuses["movies"].Swaps != swaps || statuses["cameras"].Swaps != 0 {
		t.Fatalf("group statuses: %+v", statuses)
	}
	t.Logf("served %d requests (%v by domain) over %d movies swaps: p50 %.2fms p99 %.2fms",
		rep.Requests, rep.ByDomain, swaps, rep.Latency.P50, rep.Latency.P99)
}
