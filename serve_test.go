package websyn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// movieSnapshot mines the full movie pipeline once and compiles a serving
// snapshot (cached via the shared movie simulation).
func movieSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	sim := movies(t)
	results, err := sim.MineAll(DefaultMinerConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sim.BuildSnapshot(results, 0)
}

// reloadFromDisk writes snap to a file and reads it back, so the caller
// holds nothing but what the snapshot bytes carry.
func reloadFromDisk(t *testing.T, snap *Snapshot) *Snapshot {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dict.snap")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// legacyMatchResult is what these tests read of the GET /match shape.
type legacyMatchResult struct {
	Matches []struct {
		Canonical string `json:"canonical"`
	} `json:"matches"`
}

// TestSnapshotRoundTripIdenticalMatches is the end-to-end round-trip
// acceptance test: a server started from snapshot bytes must produce
// byte-identical match results to one built directly from the miner.
func TestSnapshotRoundTripIdenticalMatches(t *testing.T) {
	snap := movieSnapshot(t)
	loaded := reloadFromDisk(t, snap)
	if loaded.Dict.Len() != snap.Dict.Len() {
		t.Fatalf("dictionary size changed through round-trip: %d -> %d",
			snap.Dict.Len(), loaded.Dict.Len())
	}

	direct := NewMatchServer(snap, ServeConfig{CacheSize: -1})
	fromDisk := NewMatchServer(loaded, ServeConfig{CacheSize: -1})
	queries := []string{
		"indy 4 near san fran",
		"dark knight imax tickets",
		"watch madagascar 2 online",
		"twilght reviews",
		"quantum of solace",
		"best pizza in town",
	}
	for _, e := range movies(t).Catalog.All()[:20] {
		queries = append(queries, e.Canonical+" showtimes")
	}
	for _, q := range queries {
		want, errA := direct.Do(MatchRequest{Query: q})
		got, errB := fromDisk.Do(MatchRequest{Query: q})
		if errA != nil || errB != nil {
			t.Fatalf("Do(%q): %v / %v", q, errA, errB)
		}
		want.Timing = got.Timing // wall-clock, not content
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Match(%q) diverged through snapshot round-trip:\n got %+v\nwant %+v", q, got, want)
		}
	}
}

// TestMoviesSnapshotBytesGolden pins the writer: the movies snapshot at
// the default seed and thresholds — what `dictbuild -dataset movies`
// writes — hashes to the digest recorded when WSNP v4 became the only
// layout, so a refactor of WriteTo (or of anything upstream of it)
// cannot move the artifact's bytes unnoticed. A deliberate format or
// mining change updates the constant, and says so.
func TestMoviesSnapshotBytesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("mined scores are float arithmetic; the digest was recorded on amd64")
	}
	const golden = "49bfb84c298885ea207c71acf261c56895364d8b370cc261b0a2057080a984f6"
	snap, err := MineSnapshot(Movies, DefaultMinerConfig(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if _, err := snap.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Errorf("movies snapshot bytes moved: sha256 %s, golden %s", got, golden)
	}
}

// TestServeFromSnapshotWithoutMiner proves the production startup path:
// an HTTP server answering /match built from snapshot bytes alone — no
// Simulation, no miner.
func TestServeFromSnapshotWithoutMiner(t *testing.T) {
	// From here on, only the snapshot bytes are used.
	snap := reloadFromDisk(t, movieSnapshot(t))
	ts := httptest.NewServer(NewMatchServer(snap, ServeConfig{}).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/match?q=indy+4+near+san+fran")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr legacyMatchResult
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Matches) == 0 ||
		mr.Matches[0].Canonical != "Indiana Jones and the Kingdom of the Crystal Skull" {
		t.Fatalf("snapshot-only server failed the paper's motivating query: %+v", mr)
	}

	// Batch acceptance: >= 100 queries in one POST.
	qs := make([]string, 128)
	for i := range qs {
		qs[i] = fmt.Sprintf("indiana jones 4 screening %d", i)
	}
	body, _ := json.Marshal(struct {
		Queries []string `json:"queries"`
	}{qs})
	bresp, err := http.Post(ts.URL+"/match/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var br struct {
		Count   int                 `json:"count"`
		Results []legacyMatchResult `json:"results"`
	}
	if err := json.NewDecoder(bresp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Count != 128 {
		t.Fatalf("batch count %d", br.Count)
	}
	for i, r := range br.Results {
		if len(r.Matches) == 0 {
			t.Fatalf("batch result %d unmatched: %+v", i, r)
		}
	}

	// The unified endpoint answers from the same snapshot-only server,
	// span-level fuzzy matching included.
	vreq := `{"query": "kingdom of the kristol skull showtimes", "explain": true}`
	vresp, err := http.Post(ts.URL+"/v1/match", "application/json", strings.NewReader(vreq))
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var vr struct {
		Count   int `json:"count"`
		Results []struct {
			MatchResponse
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.NewDecoder(vresp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	if vr.Count != 1 || vr.Results[0].Error != "" {
		t.Fatalf("v1 response: %+v", vr)
	}
	v := vr.Results[0]
	if len(v.Matches) != 1 ||
		v.Matches[0].Canonical != "Indiana Jones and the Kingdom of the Crystal Skull" {
		t.Fatalf("v1 span-fuzzy failed on the snapshot server: %+v", v.Matches)
	}
	if v.Remainder != "showtimes" || len(v.Trace) == 0 {
		t.Fatalf("v1 remainder/trace: %+v", v)
	}
}
