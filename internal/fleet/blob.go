package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"websyn/internal/serve"
)

// Store is a content-addressed snapshot blob directory — the
// distribution point between whoever publishes snapshots (the miner, a
// deploy pipeline, the coordinator) and the replicas that pull them.
//
// Layout:
//
//	<dir>/<sha256>.snap     — immutable snapshot bytes, named by content
//	<dir>/<domain>.current  — pointer file: the hex SHA a replica of
//	                          that domain should be serving
//
// Blobs are immutable once written (same name ⇒ same bytes), and every
// file — blob, pointer, fetched spool copy — is installed by
// serve.ReplaceFile (world-readable, fsynced, renamed into place), so a
// reader can never observe a half-written snapshot and a replica
// mapping its spool file is never overwritten in place. Pointer flips
// are the only mutation.
type Store struct {
	Dir string
}

// validSHA reports whether s looks like a lowercase hex SHA-256.
func validSHA(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// blobPath is the content-addressed file for sha.
func (s *Store) blobPath(sha string) string {
	return filepath.Join(s.Dir, sha+".snap")
}

// currentPath is the pointer file for a domain.
func (s *Store) currentPath(domain string) string {
	return filepath.Join(s.Dir, domain+".current")
}

func validBlobDomain(domain string) error {
	if domain == "" || strings.ContainsAny(domain, "/\\ \t\n") || domain == "." || domain == ".." {
		return fmt.Errorf("fleet: invalid blob domain %q", domain)
	}
	return nil
}

// copyHashed copies src into dst and returns the hex SHA-256 of the
// bytes copied.
func copyHashed(dst io.Writer, src string) (string, error) {
	in, err := os.Open(src)
	if err != nil {
		return "", err
	}
	defer in.Close()
	h := sha256.New()
	if _, err := io.Copy(io.MultiWriter(dst, h), in); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Stage copies src into the store under its content hash and returns
// the hex SHA-256. It does NOT move any domain pointer — a staged blob
// is invisible to replicas until SetCurrent names it. Re-staging
// identical bytes is a cheap no-op.
func (s *Store) Stage(src string) (string, error) {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return "", fmt.Errorf("fleet: blob dir: %w", err)
	}
	var sha string
	err := serve.ReplaceFile(s.Dir, func(tmp *os.File) (dest string, err error) {
		if sha, err = copyHashed(tmp, src); err != nil {
			return "", err
		}
		if _, err := os.Stat(s.blobPath(sha)); err == nil {
			return "", nil // identical bytes already staged
		}
		return s.blobPath(sha), nil
	})
	if err != nil {
		return "", fmt.Errorf("fleet: stage: %w", err)
	}
	return sha, nil
}

// SetCurrent atomically points a domain at a staged blob.
func (s *Store) SetCurrent(domain, sha string) error {
	if err := validBlobDomain(domain); err != nil {
		return err
	}
	if !validSHA(sha) {
		return fmt.Errorf("fleet: bad sha %q", sha)
	}
	if _, err := os.Stat(s.blobPath(sha)); err != nil {
		return fmt.Errorf("fleet: set current %s: blob not staged: %w", domain, err)
	}
	err := serve.ReplaceFile(s.Dir, func(tmp *os.File) (string, error) {
		_, err := tmp.WriteString(sha + "\n")
		return s.currentPath(domain), err
	})
	if err != nil {
		return fmt.Errorf("fleet: set current: %w", err)
	}
	return nil
}

// Publish stages src and flips the domain pointer to it in one call —
// the non-rolling publish used to seed a blob store. Returns the blob's
// SHA.
func (s *Store) Publish(domain, src string) (string, error) {
	sha, err := s.Stage(src)
	if err != nil {
		return "", err
	}
	if err := s.SetCurrent(domain, sha); err != nil {
		return "", err
	}
	return sha, nil
}

// Current returns the SHA a domain's pointer names, or "" when the
// domain has no pointer yet.
func (s *Store) Current(domain string) (string, error) {
	if err := validBlobDomain(domain); err != nil {
		return "", err
	}
	b, err := os.ReadFile(s.currentPath(domain))
	if err != nil {
		if os.IsNotExist(err) {
			return "", nil
		}
		return "", fmt.Errorf("fleet: current %s: %w", domain, err)
	}
	sha := strings.TrimSpace(string(b))
	if !validSHA(sha) {
		return "", fmt.Errorf("fleet: current %s: corrupt pointer %q", domain, sha)
	}
	return sha, nil
}

// Fetch copies the blob named sha to dest, verifying the bytes hash to
// sha while copying, and installs it with an atomic rename. A blob that
// fails verification (torn write, disk corruption) never reaches dest.
func (s *Store) Fetch(sha, dest string) error {
	if !validSHA(sha) {
		return fmt.Errorf("fleet: bad sha %q", sha)
	}
	err := serve.ReplaceFile(filepath.Dir(dest), func(tmp *os.File) (string, error) {
		got, err := copyHashed(tmp, s.blobPath(sha))
		if err == nil && got != sha {
			err = fmt.Errorf("content hash mismatch (got %.12s)", got)
		}
		return dest, err
	})
	if err != nil {
		return fmt.Errorf("fleet: fetch %.12s: %w", sha, err)
	}
	return nil
}
