package fleet

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"websyn/internal/serve"
	"websyn/internal/serve/reload"
)

func TestStoreStageFetchPointer(t *testing.T) {
	dir := t.TempDir()
	store := &Store{Dir: filepath.Join(dir, "blobs")}
	src := filepath.Join(dir, "src.snap")
	if err := os.WriteFile(src, []byte("snapshot bytes v1"), 0o644); err != nil {
		t.Fatal(err)
	}

	// No pointer before any publish.
	if sha, err := store.Current("movies"); err != nil || sha != "" {
		t.Fatalf("Current before publish: %q, %v", sha, err)
	}

	sha, err := store.Stage(src)
	if err != nil {
		t.Fatal(err)
	}
	if !validSHA(sha) {
		t.Fatalf("Stage returned %q", sha)
	}
	// Staged but not pointed at: still invisible.
	if cur, _ := store.Current("movies"); cur != "" {
		t.Fatalf("staging moved the pointer to %q", cur)
	}
	if err := store.SetCurrent("movies", sha); err != nil {
		t.Fatal(err)
	}
	if cur, _ := store.Current("movies"); cur != sha {
		t.Fatalf("Current = %q, want %q", cur, sha)
	}
	// Pointing at an unstaged blob must fail.
	bogus := "deadbeef" + sha[8:]
	if err := store.SetCurrent("movies", bogus); err == nil {
		t.Fatal("SetCurrent accepted an unstaged sha")
	}

	dest := filepath.Join(dir, "fetched.snap")
	if err := store.Fetch(sha, dest); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(dest)
	if string(got) != "snapshot bytes v1" {
		t.Fatalf("fetched %q", got)
	}

	// A corrupted blob must fail hash verification and never reach dest.
	if err := os.WriteFile(filepath.Join(store.Dir, sha+".snap"), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	dest2 := filepath.Join(dir, "fetched2.snap")
	if err := store.Fetch(sha, dest2); err == nil {
		t.Fatal("Fetch accepted tampered bytes")
	}
	if _, err := os.Stat(dest2); !os.IsNotExist(err) {
		t.Fatal("tampered fetch left a file at dest")
	}
}

// TestStoreFilesAreReadableAndReplaced pins how the store installs
// files: every blob, pointer and fetched spool copy is world-readable
// (a replica may run as another service user than the publisher), and a
// rewrite of an existing path — a pointer flip, a fetch over the spool
// file a replica is serving — swaps the inode instead of writing into
// the old file, so a process holding the old file open or mapped keeps
// complete old bytes.
func TestStoreFilesAreReadableAndReplaced(t *testing.T) {
	dir := t.TempDir()
	store := &Store{Dir: filepath.Join(dir, "blobs")}
	stage := func(content string) string {
		t.Helper()
		src := filepath.Join(dir, "src.snap")
		if err := os.WriteFile(src, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
		sha, err := store.Stage(src)
		if err != nil {
			t.Fatal(err)
		}
		return sha
	}
	stat := func(path string) os.FileInfo {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if mode := st.Mode().Perm(); mode != 0o644 {
			t.Errorf("%s installed with mode %o, want 644", filepath.Base(path), mode)
		}
		return st
	}

	shaA, shaB := stage("snapshot A"), stage("snapshot B, longer")
	stat(store.blobPath(shaA))
	spool := filepath.Join(dir, "spool.snap")
	pointer := store.currentPath("movies")
	if err := store.SetCurrent("movies", shaA); err != nil {
		t.Fatal(err)
	}
	if err := store.Fetch(shaA, spool); err != nil {
		t.Fatal(err)
	}
	oldPointer, oldSpool := stat(pointer), stat(spool)
	held, err := os.Open(spool) // a reader that opened the old spool file
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	if err := store.SetCurrent("movies", shaB); err != nil {
		t.Fatal(err)
	}
	if err := store.Fetch(shaB, spool); err != nil {
		t.Fatal(err)
	}
	if os.SameFile(oldPointer, stat(pointer)) {
		t.Error("SetCurrent rewrote the pointer file in place")
	}
	if os.SameFile(oldSpool, stat(spool)) {
		t.Error("Fetch rewrote the spool file in place")
	}
	if got, _ := io.ReadAll(held); string(got) != "snapshot A" {
		t.Errorf("the held old spool file now reads %q", got)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(left) > 0 {
		t.Errorf("temporary files left behind: %v", left)
	}
}

// replicaFixture is one in-process replica with the full snapshot
// plumbing: spool file, server, reloader, puller.
type replicaFixture struct {
	srv    *serve.Server
	rl     *reload.Reloader
	puller *Puller
}

func newReplicaFixture(t *testing.T, store *Store, domain string, snap *serve.Snapshot) *replicaFixture {
	t.Helper()
	spool := filepath.Join(t.TempDir(), domain+".snap")
	if err := snap.WriteFile(spool); err != nil {
		t.Fatal(err)
	}
	loaded, sha, err := serve.ReadSnapshotFileHashed(spool)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServerWithMeta(loaded, serve.Config{}, serve.SnapshotMeta{Path: spool, SHA256: sha})
	rl, err := reload.New(srv, reload.Config{Path: spool, BootSHA: sha, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	p := &Puller{Store: store, Domain: domain, Reloader: rl, Logf: t.Logf}
	p.SetBootSHA(sha)
	return &replicaFixture{srv: srv, rl: rl, puller: p}
}

func TestPullerConvergesAndSurvivesBadPublish(t *testing.T) {
	store := &Store{Dir: filepath.Join(t.TempDir(), "blobs")}
	fix := newReplicaFixture(t, store, "movies", testSnapshot())

	// Keep a copy of the v1 bytes: the puller fetches straight into the
	// spool path, so the original file won't survive later publishes.
	v1 := filepath.Join(t.TempDir(), "v1.snap")
	spoolBytes, err := os.ReadFile(fix.rl.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v1, spoolBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	// Seed the store with the bytes the replica already serves: syncing
	// must be a no-op (no fetch, no swap).
	v1sha, err := store.Publish("movies", v1)
	if err != nil {
		t.Fatal(err)
	}
	if swapped, err := fix.puller.Sync(); err != nil || swapped {
		t.Fatalf("sync on identical pointer: swapped=%v err=%v", swapped, err)
	}
	if got := fix.puller.Status().Fetches; got != 0 {
		t.Fatalf("no-op sync fetched %d times", got)
	}

	// Publish v2: the puller must fetch, reload and serve it.
	v2path := filepath.Join(t.TempDir(), "v2.snap")
	if err := testSnapshotV2().WriteFile(v2path); err != nil {
		t.Fatal(err)
	}
	v2sha, err := store.Publish("movies", v2path)
	if err != nil {
		t.Fatal(err)
	}
	if v2sha == v1sha {
		t.Fatal("fixture v2 has identical bytes to v1")
	}
	swapped, err := fix.puller.Sync()
	if err != nil || !swapped {
		t.Fatalf("sync to v2: swapped=%v err=%v", swapped, err)
	}
	if got := fix.srv.SnapshotInfo().Snapshot.SHA256; got != v2sha {
		t.Fatalf("serving %.12s, want %.12s", got, v2sha)
	}

	// A garbage publish is fetched once, rejected by the reloader, and
	// the old generation keeps serving; re-syncing the same bad SHA is a
	// cheap no-op, not a refetch.
	garbage := filepath.Join(t.TempDir(), "garbage.snap")
	if err := os.WriteFile(garbage, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Publish("movies", garbage); err != nil {
		t.Fatal(err)
	}
	if _, err := fix.puller.Sync(); err == nil {
		t.Fatal("garbage publish synced cleanly")
	}
	if got := fix.srv.SnapshotInfo().Snapshot.SHA256; got != v2sha {
		t.Fatalf("bad publish changed serving state to %.12s", got)
	}
	fetchesAfterReject := fix.puller.Status().Fetches
	if _, err := fix.puller.Sync(); err != nil {
		t.Fatalf("re-sync of a rejected sha must be a quiet no-op, got %v", err)
	}
	if got := fix.puller.Status().Fetches; got != fetchesAfterReject {
		t.Fatal("rejected sha was fetched again on the next sync")
	}

	// A fresh good publish clears the jam.
	if _, err := store.Publish("movies", v1); err != nil {
		t.Fatal(err)
	}
	if swapped, err := fix.puller.Sync(); err != nil || !swapped {
		t.Fatalf("recovery publish: swapped=%v err=%v", swapped, err)
	}
	if got := fix.srv.SnapshotInfo().Snapshot.SHA256; got != v1sha {
		t.Fatalf("serving %.12s after recovery, want %.12s", got, v1sha)
	}
}
