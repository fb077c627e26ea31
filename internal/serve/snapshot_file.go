package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
)

// The openers below differ only in where parse's bytes come from and in
// its mode. Copy mode (ReadSnapshotFile*) reads the file onto the heap,
// decodes, and drops the bytes. Alias mode (OpenSnapshotMapped*) maps
// the file and leaves the fuzzy posting slabs pointing into the mapping:
// boot skips the posting decode, and the slab pages stay shared, clean
// and evictable across every process mapping the same file.

// ReadSnapshotFile loads a snapshot from a file in copy mode.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	snap, _, err := LoadSnapshotFile(path, false, nil)
	return snap, err
}

// ReadSnapshotFileHashed is ReadSnapshotFile also returning the hex
// SHA-256 of the file bytes — the provenance digest matchd boots with
// and the reload watcher keys its change detection on.
func ReadSnapshotFileHashed(path string) (*Snapshot, string, error) {
	return LoadSnapshotFile(path, false, anySHA)
}

// OpenSnapshotMapped loads a snapshot in alias mode. The mapping is
// released by the garbage collector when nothing built from the
// snapshot references it anymore.
func OpenSnapshotMapped(path string) (*Snapshot, error) {
	snap, _, err := LoadSnapshotFile(path, true, nil)
	return snap, err
}

// OpenSnapshotMappedHashed is OpenSnapshotMapped also returning the hex
// SHA-256 of the file bytes.
func OpenSnapshotMappedHashed(path string) (*Snapshot, string, error) {
	return LoadSnapshotFile(path, true, anySHA)
}

func anySHA(string) bool { return true }

// LoadSnapshotFile opens path once — mapped, or read onto the heap — and
// works on those bytes only. With a non-nil want it hashes them first
// and asks want whether a file with that SHA-256 is worth decoding: a
// false answer returns (nil, sha, nil) at the price of one read, which
// is how the reload watcher skips unchanged and already-rejected files.
// What was hashed is what is parsed, so the returned digest names the
// returned snapshot even while a publisher renames a new file into
// place. The digest is returned alongside a decode error too.
func LoadSnapshotFile(path string, mapped bool, want func(sha256 string) bool) (*Snapshot, string, error) {
	var (
		data []byte
		m    *mappedFile
		pin  any // stays a nil interface in copy mode
		err  error
	)
	if mapped {
		if m, err = mapSnapshot(path); err != nil {
			return nil, "", err
		}
		data, pin = m.data, m
	} else if data, err = os.ReadFile(path); err != nil {
		return nil, "", fmt.Errorf("serve: reading snapshot: %w", err)
	}
	sha := ""
	if want != nil {
		sum := sha256.Sum256(data)
		sha = hex.EncodeToString(sum[:])
	}
	var snap *Snapshot
	if want == nil || want(sha) {
		snap, err = parse(data, pin)
	}
	if snap == nil {
		// Nothing aliases the mapping; don't wait for the collector.
		m.release()
	}
	return snap, sha, err
}

// mappedFile owns one memory-mapped snapshot file. Generations alias
// its pages (the fuzzy posting slabs point straight into it), so it is
// pinned from match-side index structs and unmapped by the garbage
// collector once the last generation referencing it is gone — there is
// deliberately no public Close, because no caller can know when the
// last aliasing response has been dropped.
type mappedFile struct {
	data  []byte
	unmap func() error
	done  atomic.Bool
}

// release unmaps once; the finalizer, the error paths and tests may all
// call it, on a nil receiver too.
func (m *mappedFile) release() {
	if m != nil && m.done.CompareAndSwap(false, true) && m.unmap != nil {
		_ = m.unmap()
	}
}

// mapSnapshot maps the whole file read-only.
func mapSnapshot(path string) (*mappedFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: opening snapshot: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("serve: stating snapshot: %w", err)
	}
	size := st.Size()
	if size == 0 {
		return &mappedFile{}, nil // nothing to map; parse reports the length
	}
	if size > int64(^uint(0)>>1) {
		return nil, fmt.Errorf("serve: snapshot %q too large to map", path)
	}
	data, unmap, err := mmapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("serve: mapping snapshot: %w", err)
	}
	m := &mappedFile{data: data, unmap: unmap}
	runtime.SetFinalizer(m, (*mappedFile).release)
	return m, nil
}

// WriteFile serializes the snapshot to a file, replacing any existing
// content atomically (see ReplaceFile).
func (s *Snapshot) WriteFile(path string) error {
	err := ReplaceFile(filepath.Dir(path), func(f *os.File) (string, error) {
		_, err := s.WriteTo(f)
		return path, err
	})
	if err != nil {
		return fmt.Errorf("serve: writing snapshot: %w", err)
	}
	return nil
}

// ReplaceFile is the one way this repository installs a file a server
// may be reading or mapping — snapshots, blob-store blobs, spool copies
// and pointer files. write fills a temporary file created in dir and
// names the destination, which must be on dir's filesystem; ReplaceFile
// then opens the mode up, flushes to stable storage and renames into
// place. An empty destination discards the temporary file.
//
// The rename is the contract: the destination's inode is replaced,
// never truncated or overwritten in place, so a process holding the old
// file open or mapped (matchd -mmap) keeps a complete, immutable old
// file — no torn read, no SIGBUS — and a reader that opens the path
// sees either the old bytes or the new, never a mixture.
func ReplaceFile(dir string, write func(tmp *os.File) (dest string, err error)) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	dest, err := write(tmp)
	if err == nil && dest != "" {
		// CreateTemp's 0600 would make the artifact unreadable by a
		// service user other than the writer; open it up to a normal mode.
		err = tmp.Chmod(0o644)
		if err == nil {
			// Flush to stable storage before the rename makes it visible,
			// so a crash cannot install a truncated file.
			err = tmp.Sync()
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil || dest == "" {
		return err
	}
	return os.Rename(tmp.Name(), dest)
}
