package reload

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"websyn/internal/match"
	"websyn/internal/serve"
)

// testSnapshot builds a small movies snapshot; tag lands in an extra
// mined entry so variants differ byte-wise (and are distinguishable
// through the serving API).
func testSnapshot(tag string) *serve.Snapshot {
	d := match.NewDictionary()
	d.Add("Indiana Jones and the Kingdom of the Crystal Skull",
		match.Entry{EntityID: 0, Score: 1, Source: "canonical"})
	d.Add("indy 4", match.Entry{EntityID: 0, Score: 0.8, Source: "mined"})
	d.Add("Madagascar: Escape 2 Africa", match.Entry{EntityID: 1, Score: 1, Source: "canonical"})
	d.Add("madagascar 2", match.Entry{EntityID: 1, Score: 0.9, Source: "mined"})
	if tag != "" {
		d.Add(tag, match.Entry{EntityID: 0, Score: 0.5, Source: "mined"})
	}
	return &serve.Snapshot{
		Dataset: "Movies",
		MinSim:  0.55,
		Canonicals: []string{
			"Indiana Jones and the Kingdom of the Crystal Skull",
			"Madagascar: Escape 2 Africa",
		},
		Synonyms: map[string][]string{},
		Dict:     d,
		Fuzzy:    d.NewFuzzyIndex(0.55).Packed(),
	}
}

// mtimeSeq hands every test write a strictly increasing mtime, so the
// watcher's stat fast path sees each publish even on filesystems with
// coarse timestamp granularity (tests land writes milliseconds apart).
var mtimeSeq atomic.Int64

// writeSnapshot publishes snap at path the way every in-repo writer
// does: WriteFile's temp-file + rename.
func writeSnapshot(t *testing.T, snap *serve.Snapshot, path string) {
	t.Helper()
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	mt := time.Now().Add(time.Duration(mtimeSeq.Add(1)) * time.Second)
	if err := os.Chtimes(path, mt, mt); err != nil {
		t.Fatal(err)
	}
}

// bootServer writes the snapshot to path and boots a server plus
// reloader on it, the way matchd does: the boot provenance (path +
// content hash) rides on the first generation, and the reloader picks
// its memo up from there.
func bootServer(t *testing.T, path string) (*serve.Server, *Reloader) {
	t.Helper()
	writeSnapshot(t, testSnapshot(""), path)
	snap, sha, err := serve.ReadSnapshotFileHashed(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServerWithMeta(snap, serve.Config{CacheSize: 64},
		serve.SnapshotMeta{Path: path, SHA256: sha})
	r, err := New(srv, Config{Path: path, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return srv, r
}

func mustMatch(t *testing.T, srv *serve.Server, query string, entity int) {
	t.Helper()
	res, err := srv.Do(match.Request{Query: query})
	if err != nil {
		t.Fatalf("Do(%q): %v", query, err)
	}
	if len(res.Matches) == 0 || res.Matches[0].EntityID != entity {
		t.Fatalf("Do(%q) = %+v, want entity %d", query, res.Matches, entity)
	}
}

// TestCrossgradeReloads swaps a live server across three snapshots with
// different bytes, once by Reload and once through the admin endpoint:
// each must install cleanly, with generation, swaps and the layout
// version visible on /statsz and /admin/snapshot and queries served
// throughout.
func TestCrossgradeReloads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dict.snap")
	srv, r := bootServer(t, path)

	mux := http.NewServeMux()
	srv.Mount(mux)
	r.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	if gen, swaps := srv.Generation(); gen != 1 || swaps != 0 {
		t.Fatalf("boot generation %d swaps %d, want 1, 0", gen, swaps)
	}
	mustMatch(t, srv, "indy 4 tickets", 0)

	// A snapshot without a fuzzy section (servers rebuild the index)
	// replaces the booted one on a live server.
	bare := testSnapshot("gen two")
	bare.Fuzzy = nil
	writeSnapshot(t, bare, path)
	if swapped, err := r.Reload(false); err != nil || !swapped {
		t.Fatalf("first reload: swapped %v, err %v", swapped, err)
	}
	if st := srv.Stats(); st.Generation != 2 || st.Swaps != 1 || st.SnapshotVersion != serve.SnapshotVersion {
		t.Fatalf("after first install: generation %d swaps %d version %d",
			st.Generation, st.Swaps, st.SnapshotVersion)
	}
	mustMatch(t, srv, "gen two", 0) // the new dictionary is live
	mustMatch(t, srv, "madagascar 2 dvd", 1)

	// And back to a full snapshot via the admin endpoint.
	writeSnapshot(t, testSnapshot("gen three"), path)
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /admin/reload: status %d", resp.StatusCode)
	}
	var rr struct {
		Swapped    bool               `json:"swapped"`
		Generation uint64             `json:"generation"`
		Snapshot   serve.SnapshotMeta `json:"snapshot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Swapped || rr.Generation != 3 || rr.Snapshot.Version != serve.SnapshotVersion {
		t.Fatalf("reload response %+v", rr)
	}
	if rr.Snapshot.SHA256 == "" || rr.Snapshot.Path != path {
		t.Fatalf("snapshot provenance %+v", rr.Snapshot)
	}
	mustMatch(t, srv, "gen three", 0)

	// /admin/snapshot agrees.
	var info serve.SnapshotInfo
	getJSON(t, ts.URL+"/admin/snapshot", &info)
	if info.Generation != 3 || info.Swaps != 2 || info.Snapshot.Version != serve.SnapshotVersion {
		t.Fatalf("/admin/snapshot: %+v", info)
	}
}

// TestCorruptSnapshotRejected flips bytes in the watched file: the
// reload must fail, keep the old generation serving, and surface the
// error on the status endpoint.
func TestCorruptSnapshotRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dict.snap")
	srv, r := bootServer(t, path)

	mux := http.NewServeMux()
	srv.Mount(mux)
	r.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, corrupt := range [][]byte{
		data[:len(data)/2],           // truncated
		append([]byte("JUNK"), 7, 7), // bad magic
		flipByte(data, len(data)/2),  // bit rot mid-file (CRC catches it)
		flipByte(data, len(data)-2),  // corrupted checksum itself
	} {
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		swapped, err := r.Reload(false)
		if err == nil || swapped {
			t.Fatalf("corrupt snapshot accepted: swapped %v, err %v", swapped, err)
		}
		if gen, _ := srv.Generation(); gen != 1 {
			t.Fatalf("generation advanced to %d on corrupt input", gen)
		}
		mustMatch(t, srv, "indy 4", 0) // old engine still serving
	}

	// Re-polling the same bad bytes is a cheap no-op: the rejection is
	// memoized (one parse/build attempt per bad file, not per tick) and
	// stays visible on LastError until a different file lands.
	failuresBefore := r.Status().Failures
	if swapped, err := r.Reload(false); err != nil || swapped {
		t.Fatalf("re-poll of rejected bytes: swapped %v, err %v", swapped, err)
	}
	if st := r.Status(); st.Failures != failuresBefore || st.LastError == "" {
		t.Fatalf("re-poll of rejected bytes changed status: %+v (failures were %d)", st, failuresBefore)
	}

	// The HTTP surface: 422 with the error, old generation reported.
	resp, err := http.Post(ts.URL+"/admin/reload?force=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("POST /admin/reload on corrupt file: status %d", resp.StatusCode)
	}
	var st Status
	getJSON(t, ts.URL+"/admin/reload/status", &st)
	if st.Failures < 4 || st.LastError == "" || st.Swaps != 0 {
		t.Fatalf("status after corrupt reloads: %+v", st)
	}

	// A good snapshot recovers, and the recorded error clears.
	writeSnapshot(t, testSnapshot("recovered"), path)
	if swapped, err := r.Reload(false); err != nil || !swapped {
		t.Fatalf("recovery reload: swapped %v, err %v", swapped, err)
	}
	if st := r.Status(); st.LastError != "" || st.Swaps != 1 {
		t.Fatalf("status after recovery: %+v", st)
	}
	mustMatch(t, srv, "recovered", 0)
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0xFF
	return out
}

// TestCanaryRejectsBrokenSnapshot feeds a well-formed snapshot whose
// entity table does not resolve against its own dictionary: the CRC is
// fine, so only canary validation can catch it.
func TestCanaryRejectsBrokenSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dict.snap")
	srv, r := bootServer(t, path)

	bad := testSnapshot("broken")
	bad.Canonicals = append(bad.Canonicals, "Some Movie Missing From The Dictionary")
	writeSnapshot(t, bad, path)

	swapped, err := r.Reload(false)
	if err == nil || swapped {
		t.Fatalf("canary accepted a broken snapshot: swapped %v, err %v", swapped, err)
	}
	if !strings.Contains(err.Error(), "canary") {
		t.Fatalf("error %v, want canary rejection", err)
	}
	if gen, _ := srv.Generation(); gen != 1 {
		t.Fatalf("generation advanced to %d past a failed canary", gen)
	}

	// A canary that cannot match even the current dictionary is almost
	// certainly a typo: construction must fail fast rather than freeze
	// all future reloads.
	if _, err := New(srv, Config{Path: path, Canary: []string{"query that matches nothing"}, Logf: t.Logf}); err == nil {
		t.Fatal("New accepted a canary that matches nothing")
	}

	// A canary valid on the boot dictionary still gates candidates that
	// lost the entity it probes for.
	r2, err := New(srv, Config{Path: path, Canary: []string{"indy 4"}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// The candidate is internally consistent (its own canonicals
	// self-resolve, so the built-in canary passes) but has lost the
	// entity the explicit canary probes for.
	d := match.NewDictionary()
	d.Add("Madagascar: Escape 2 Africa", match.Entry{EntityID: 0, Score: 1, Source: "canonical"})
	noIndy := &serve.Snapshot{
		Dataset:    "Movies",
		MinSim:     0.55,
		Canonicals: []string{"Madagascar: Escape 2 Africa"},
		Synonyms:   map[string][]string{},
		Dict:       d,
		Fuzzy:      d.NewFuzzyIndex(0.55).Packed(),
	}
	writeSnapshot(t, noIndy, path)
	if swapped, err := r2.Reload(false); err == nil || swapped {
		t.Fatalf("explicit canary accepted a snapshot missing its entity: swapped %v, err %v", swapped, err)
	}
	mustMatch(t, srv, "indy 4", 0) // old dictionary still live
}

// TestCanarySeesWhatServes pins the canary to the serving path: for each
// configured canary query, the matches the candidate generation's engine
// gave the canary equal what Server.Do answers once that generation is
// installed — one query per resolution method, so the canary admits a
// snapshot on exactly the answers traffic will get.
func TestCanarySeesWhatServes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dict.snap")
	srv, _ := bootServer(t, path)
	queries := []string{"indy 4 near san fran", "madagascr 2 dvd", "madagascar2 showtimes"}
	r, err := New(srv, Config{Path: path, Canary: queries, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	gen, err := srv.Prepare(testSnapshot("next"), serve.SnapshotMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.canary(gen); err != nil {
		t.Fatalf("canary rejected a good generation: %v", err)
	}
	accepted := make([][]match.SpanMatch, len(queries))
	methods := map[string]bool{}
	for i, q := range queries {
		res, err := gen.Engine().Match(match.Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		accepted[i] = res.Matches
		for _, m := range res.Matches {
			methods[m.Method] = true
		}
	}
	for _, m := range []string{match.MethodTrie, match.MethodTrieTypo, match.MethodSpanFuzzy} {
		if !methods[m] {
			t.Errorf("canary queries never resolved through %q: fixture too weak", m)
		}
	}

	srv.Install(gen)
	for i, q := range queries {
		res, err := srv.Do(match.Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Matches, accepted[i]) {
			t.Errorf("query %q: served matches differ from what the canary accepted:\n served %+v\n canary %+v", q, res.Matches, accepted[i])
		}
	}
}

// TestUnchangedFileSkipsSwap pins the change detection: same stat ->
// no-op; rewritten identical bytes -> no-op; force -> reinstall.
func TestUnchangedFileSkipsSwap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dict.snap")
	srv, r := bootServer(t, path)

	if swapped, err := r.Reload(false); err != nil || swapped {
		t.Fatalf("unchanged file: swapped %v, err %v", swapped, err)
	}

	// Same bytes, fresh mtime: the SHA memo must suppress the rebuild.
	writeSnapshot(t, testSnapshot(""), path)
	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	if swapped, err := r.Reload(false); err != nil || swapped {
		t.Fatalf("identical bytes: swapped %v, err %v", swapped, err)
	}

	if swapped, err := r.Reload(true); err != nil || !swapped {
		t.Fatalf("forced reload: swapped %v, err %v", swapped, err)
	}
	if gen, swaps := srv.Generation(); gen != 2 || swaps != 1 {
		t.Fatalf("after force: generation %d swaps %d", gen, swaps)
	}
}

// TestBootSHAMemo pins the BootSHA contract: bytes matching the boot
// hash are skipped without a rebuild, while a snapshot that replaced
// the file between the boot read and New (the caller's hash is stale)
// is still detected and installed on the first check.
func TestBootSHAMemo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dict.snap")
	writeSnapshot(t, testSnapshot(""), path)
	snap, bootSHA, err := serve.ReadSnapshotFileHashed(path)
	if err != nil {
		t.Fatal(err)
	}

	// Unchanged file: the memoized hash suppresses the rebuild.
	srv := serve.NewServer(snap, serve.Config{})
	r, err := New(srv, Config{Path: path, BootSHA: bootSHA, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if swapped, err := r.Reload(false); err != nil || swapped {
		t.Fatalf("boot bytes re-installed: swapped %v, err %v", swapped, err)
	}

	// Publisher raced the boot: a new file landed before New ran. The
	// stale boot hash must not mask it.
	srv2 := serve.NewServer(snap, serve.Config{})
	writeSnapshot(t, testSnapshot("raced boot"), path)
	r2, err := New(srv2, Config{Path: path, BootSHA: bootSHA, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if swapped, err := r2.Reload(false); err != nil || !swapped {
		t.Fatalf("boot-window snapshot missed: swapped %v, err %v", swapped, err)
	}
	mustMatch(t, srv2, "raced boot", 0)
}

// TestStatPreservingPublishIsEventuallySeen pins the periodic re-hash:
// a publish that preserves both mtime and size (coarse-timestamp
// filesystem, `cp -p`-style tooling) is invisible to the stat fast
// path, but must still be installed within statRehashEvery checks.
func TestStatPreservingPublishIsEventuallySeen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dict.snap")

	// Boot on a tagged snapshot so the replacement — same tag length,
	// same trigram shape — serializes to the same byte count.
	writeSnapshot(t, testSnapshot("tag aaa1"), path)
	snap, sha, err := serve.ReadSnapshotFileHashed(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServerWithMeta(snap, serve.Config{},
		serve.SnapshotMeta{Path: path, SHA256: sha})
	r, err := New(srv, Config{Path: path, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	// Settle the stat memo with one ordinary check.
	if swapped, err := r.Reload(false); err != nil || swapped {
		t.Fatalf("settling check: swapped %v, err %v", swapped, err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// Restoring the old mtime makes the publish stat-invisible.
	writeSnapshot(t, testSnapshot("tag aaa2"), path)
	if err := os.Chtimes(path, before.ModTime(), before.ModTime()); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatalf("test setup failed to preserve stat: %v/%d -> %v/%d",
			before.ModTime(), before.Size(), after.ModTime(), after.Size())
	}

	swappedAt := 0
	for i := 1; i <= statRehashEvery+1; i++ {
		swapped, err := r.Reload(false)
		if err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
		if swapped {
			swappedAt = i
			break
		}
	}
	if swappedAt == 0 {
		t.Fatalf("stat-preserving publish never installed within %d checks", statRehashEvery+1)
	}
	t.Logf("stat-preserving publish installed at check %d", swappedAt)
	mustMatch(t, srv, "tag aaa2", 0)
}

// TestPollerPicksUpNewSnapshot runs the watcher loop and drops a new
// snapshot under it.
func TestPollerPicksUpNewSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dict.snap")
	srv, _ := bootServer(t, path)
	r, err := New(srv, Config{Path: path, Interval: 5 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()

	writeSnapshot(t, testSnapshot("polled in"), path)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, swaps := srv.Generation(); swaps == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("poller never installed the new snapshot: %+v", r.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	mustMatch(t, srv, "polled in", 0)
	cancel()
	<-done
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
