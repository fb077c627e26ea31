package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"websyn/internal/match"
)

// writeTestSnapshotFile serializes snap into a temp file and returns its
// path and bytes.
func writeTestSnapshotFile(t *testing.T, snap *Snapshot) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "test.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// mutated returns a copy of raw with mutate applied.
func mutated(raw []byte, mutate func(b []byte)) []byte {
	b := append([]byte(nil), raw...)
	mutate(b)
	return b
}

func noop([]byte) {}

// resealed is mutated with the CRC trailer recomputed, so the mutation
// survives the integrity gate and reaches the structural decoder.
func resealed(raw []byte, mutate func(b []byte)) []byte {
	b := mutated(raw, mutate)
	binary.BigEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

// TestOpenSnapshotMappedVocabulary pins the vocabulary section in alias
// mode: it sits after the aligned fuzzy slabs, and must decode (onto the
// heap) exactly as in copy mode while the slabs before it stay mapped.
func TestOpenSnapshotMappedVocabulary(t *testing.T) {
	snap := testSnapshot()
	snap.Vocab = testVocabulary()
	path, _ := writeTestSnapshotFile(t, snap)

	got, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Fuzzy.Mapped() {
		t.Errorf("fuzzy index not mapped with vocabulary section present")
	}
	if !reflect.DeepEqual(got.Vocab, snap.Vocab) {
		t.Errorf("mapped vocabulary diverged:\n got %+v\nwant %+v", got.Vocab, snap.Vocab)
	}
}

func TestOpenSnapshotMapped(t *testing.T) {
	snap := testSnapshot()
	path, raw := writeTestSnapshotFile(t, snap)

	got, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Fuzzy.Mapped() {
		t.Errorf("current-version snapshot's fuzzy index not mapped")
	}
	if got.Dataset != snap.Dataset || got.MinSim != snap.MinSim {
		t.Errorf("header diverged: got (%q, %v), want (%q, %v)", got.Dataset, got.MinSim, snap.Dataset, snap.MinSim)
	}
	if !reflect.DeepEqual(got.Canonicals, snap.Canonicals) {
		t.Errorf("Canonicals %v, want %v", got.Canonicals, snap.Canonicals)
	}
	if !reflect.DeepEqual(dumpDict(got.Dict), dumpDict(snap.Dict)) {
		t.Errorf("dictionary content diverged through the mapping")
	}
	// Slab-level equality with the source index, field by field (the
	// backing pin legitimately differs).
	if got.Fuzzy.NumStrings != snap.Fuzzy.NumStrings ||
		!reflect.DeepEqual(got.Fuzzy.Grams, snap.Fuzzy.Grams) ||
		!reflect.DeepEqual(got.Fuzzy.Offsets, snap.Fuzzy.Offsets) ||
		!reflect.DeepEqual(got.Fuzzy.Postings, snap.Fuzzy.Postings) ||
		!reflect.DeepEqual(got.Fuzzy.Mults, snap.Fuzzy.Mults) {
		t.Errorf("mapped fuzzy slabs diverged from the source index")
	}

	// The mapped snapshot must serve byte-identically to the copied one.
	streamed, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a := NewServer(got, Config{CacheSize: -1})
	b := NewServer(streamed, Config{CacheSize: -1})
	for _, q := range []string{
		"showtimes for indy 4 near san francisco",
		"madagascar 2 trailer",
		"kingdom of the crystal skul",
		"indianna jones 4",
		"mdagascar",
	} {
		for _, mode := range []match.Mode{match.ModeSegment, match.ModeSpan, match.ModeFuzzy} {
			req := match.Request{Query: q, Mode: mode, TopK: 3, Explain: true}
			ra, errA := a.Do(req)
			rb, errB := b.Do(req)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s %q: error divergence %v vs %v", mode, q, errA, errB)
			}
			ra.Timing, rb.Timing = match.Timing{}, match.Timing{}
			if !reflect.DeepEqual(ra, rb) {
				t.Errorf("%s %q: mapped and streamed snapshots disagree:\n got %+v\nwant %+v", mode, q, ra, rb)
			}
		}
	}

	// Both openers hash the same bytes.
	_, wantSHA, err := ReadSnapshotFileHashed(path)
	if err != nil {
		t.Fatal(err)
	}
	_, gotSHA, err := OpenSnapshotMappedHashed(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotSHA != wantSHA {
		t.Errorf("mapped digest %s, read digest %s", gotSHA, wantSHA)
	}
	if sum := sha256.Sum256(raw); gotSHA != hex.EncodeToString(sum[:]) {
		t.Errorf("digest %s is not the SHA-256 of the file bytes", gotSHA)
	}
}

// bothOpeners runs one file through the copy-mode and the alias-mode
// opener and requires one verdict: both accept, or both refuse with the
// same error.
func bothOpeners(t *testing.T, name string, file []byte) (*Snapshot, *Snapshot, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "case.snap")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	read, errRead := ReadSnapshotFile(path)
	mapped, errMapped := OpenSnapshotMapped(path)
	if (errRead == nil) != (errMapped == nil) ||
		(errRead != nil && errRead.Error() != errMapped.Error()) {
		t.Fatalf("%s: the openers disagree on the same file:\n ReadSnapshotFile:   %v\n OpenSnapshotMapped: %v",
			name, errRead, errMapped)
	}
	return read, mapped, errRead
}

// TestOpenSnapshotMappedOldVersions pins the refusal of retired layouts:
// a version 1, 2 or 3 header — checksum valid or not — fails through
// both openers with one error that names the version found and says how
// to get a readable file.
func TestOpenSnapshotMappedOldVersions(t *testing.T) {
	_, raw := writeTestSnapshotFile(t, testSnapshot())
	for _, ver := range []byte{1, 2, 3} {
		setVersion := func(b []byte) { b[4] = ver }
		for name, file := range map[string][]byte{
			"header and nothing else": {'W', 'S', 'N', 'P', ver, 0, 0, 0, 0},
			"stale checksum":          mutated(raw, setVersion),
			"valid checksum":          resealed(raw, setVersion),
		} {
			_, _, err := bothOpeners(t, name, file)
			if err == nil {
				t.Fatalf("version %d (%s) accepted", ver, name)
			}
			for _, want := range []string{fmt.Sprintf("version %d,", ver), "cmd/dictbuild"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("version %d (%s): error %q does not mention %q", ver, name, err, want)
				}
			}
		}
	}
}

// TestOpenersAgree is the one-decoder property at the file level: the
// two openers differ only in where the bytes live, so whatever is wrong
// (or right) with a file, -mmap must not change whether it loads.
func TestOpenersAgree(t *testing.T) {
	full := testSnapshot()
	full.Vocab = testVocabulary()
	_, raw := writeTestSnapshotFile(t, full)
	bare := testSnapshot()
	bare.Fuzzy = nil
	_, rawBare := writeTestSnapshotFile(t, bare)
	inDict := bytes.Index(raw, []byte("mined")) // an offset inside the dictionary section

	cases := []struct {
		name string
		file []byte
		ok   bool
	}{
		{"valid", raw, true},
		{"valid, no fuzzy or vocabulary section", rawBare, true},
		{"empty", nil, false},
		{"magic only", raw[:4], false},
		{"truncated in header", raw[:7], false},
		{"truncated mid-file", raw[:len(raw)/2], false},
		{"truncated by one byte", raw[:len(raw)-1], false},
		{"checksum cut off", raw[:len(raw)-4], false},
		{"bit flip in dictionary", mutated(raw, func(b []byte) { b[inDict] ^= 0x40 }), false},
		{"bit flip in checksum", mutated(raw, func(b []byte) { b[len(b)-1] ^= 1 }), false},
		{"bit flip in magic", mutated(raw, func(b []byte) { b[0] ^= 0x20 }), false},
		{"trailing garbage", append(mutated(raw, noop), "junk"...), false},
		{"trailing newline", append(mutated(raw, noop), '\n'), false},
		{"two snapshots concatenated", append(mutated(raw, noop), raw...), false},
		{"resealed: string length past end", resealed(raw, func(b []byte) { b[5] = 0xff; b[6] = 0x7f }), false},
		{"resealed: bad presence byte", resealed(rawBare, func(b []byte) { b[len(b)-6] = 7 }), false},
		{"resealed: undecoded bytes before checksum", resealed(append(mutated(rawBare, noop), 0), noop), false},
		{"version 1 header", resealed(raw, func(b []byte) { b[4] = 1 }), false},
		{"version 2 header", resealed(raw, func(b []byte) { b[4] = 2 }), false},
		{"version 3 header", resealed(raw, func(b []byte) { b[4] = 3 }), false},
		{"version 5 header", resealed(raw, func(b []byte) { b[4] = 5 }), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			read, mapped, err := bothOpeners(t, c.name, c.file)
			if (err == nil) != c.ok {
				t.Fatalf("accepted = %v, want %v (err: %v)", err == nil, c.ok, err)
			}
			if err != nil {
				return
			}
			if !reflect.DeepEqual(dumpDict(read.Dict), dumpDict(mapped.Dict)) ||
				!reflect.DeepEqual(read.Canonicals, mapped.Canonicals) ||
				!reflect.DeepEqual(read.Synonyms, mapped.Synonyms) ||
				!reflect.DeepEqual(read.Vocab, mapped.Vocab) ||
				read.Version != mapped.Version || (read.Fuzzy == nil) != (mapped.Fuzzy == nil) {
				t.Fatal("the openers decoded different snapshots from the same bytes")
			}
			if read.Fuzzy.Mapped() || (mapped.Fuzzy != nil && !mapped.Fuzzy.Mapped()) {
				t.Errorf("modes crossed: read Mapped=%v, mapped Mapped=%v", read.Fuzzy.Mapped(), mapped.Fuzzy.Mapped())
			}
		})
	}
}

func TestOpenSnapshotMappedRejectsCorrupt(t *testing.T) {
	snap := testSnapshot()
	_, raw := writeTestSnapshotFile(t, snap)
	dir := t.TempDir()
	write := func(b []byte) string {
		path := filepath.Join(dir, "corrupt.snap")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Truncations at every interesting boundary.
	for _, n := range []int{0, 3, 5, 16, len(raw) / 2, len(raw) - 5, len(raw) - 1} {
		if _, err := OpenSnapshotMapped(write(raw[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	// Bit flips across the file (every flip breaks the CRC).
	for pos := 0; pos < len(raw); pos += 97 {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x40
		if _, err := OpenSnapshotMapped(write(mut)); err == nil {
			t.Errorf("bit flip at %d accepted", pos)
		}
	}
}

// TestWriteFileReplacesByRename pins the rule that keeps a live -mmap
// mapping safe under every in-repo writer: WriteFile installs a new
// inode (readable by other service users) and never truncates or
// overwrites the old one, so a snapshot mapped from the old file still
// reads its own complete bytes afterwards.
func TestWriteFileReplacesByRename(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dict.snap")
	old := testSnapshot()
	if err := old.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}

	next := testSnapshot()
	next.Dict.Add("a much longer replacement dictionary string", match.Entry{EntityID: 2, Score: 0.5, Source: "mined"})
	next.Fuzzy = next.Dict.NewFuzzyIndex(0.55).Packed()
	if err := next.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, after) {
		t.Error("WriteFile rewrote the snapshot in place")
	}
	if mode := after.Mode().Perm(); mode != 0o644 {
		t.Errorf("snapshot installed with mode %o, want 644", mode)
	}
	if !reflect.DeepEqual(mapped.Fuzzy.Postings, old.Fuzzy.Postings) || !reflect.DeepEqual(mapped.Fuzzy.Grams, old.Fuzzy.Grams) {
		t.Error("the slabs mapped from the replaced file changed under the mapping")
	}
	if left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".tmp-*")); len(left) > 0 {
		t.Errorf("temporary files left behind: %v", left)
	}
}

// TestLoadSnapshotFileParsesWhatItHashed pins the single open: the want
// callback sees the digest of the bytes that are then decoded, even when
// a publisher renames a different file into place in between — in both
// modes — and a false answer costs no decode.
func TestLoadSnapshotFileParsesWhatItHashed(t *testing.T) {
	for _, mapped := range []bool{false, true} {
		path, raw := writeTestSnapshotFile(t, testSnapshot())
		sum := sha256.Sum256(raw)
		wantSHA := hex.EncodeToString(sum[:])

		snap, sha, err := LoadSnapshotFile(path, mapped, func(string) bool { return false })
		if snap != nil || err != nil || sha != wantSHA {
			t.Fatalf("mapped=%v declined load: snap %v, sha %q, err %v", mapped, snap != nil, sha, err)
		}

		other := testSnapshot()
		other.Dataset = "Replaced"
		snap, sha, err = LoadSnapshotFile(path, mapped, func(string) bool {
			if err := other.WriteFile(path); err != nil { // publish mid-load
				t.Error(err)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if sha != wantSHA || snap.Dataset != "Movies" {
			t.Errorf("mapped=%v: digest %.12s names dataset %q; want %.12s and the bytes it was computed from",
				mapped, sha, snap.Dataset, wantSHA)
		}
		if snap.Fuzzy.Mapped() != mapped {
			t.Errorf("mapped=%v: Fuzzy.Mapped() = %v", mapped, snap.Fuzzy.Mapped())
		}
	}
}

// FuzzMmapSnapshotOpen drives arbitrary bytes through the snapshot
// decoder in both of its modes. Inputs are parsed as-is (exercising the
// whole-file CRC gate) and again with the CRC trailer recomputed so the
// mutation survives into the structural decoder; each time alias mode
// and copy mode must reach the same verdict — the same error, or the
// same snapshot — and truncated, bit-flipped and short-header sections
// must be rejected with an error, never a panic or an out-of-range read.
func FuzzMmapSnapshotOpen(f *testing.F) {
	full := testSnapshot()
	full.Vocab = testVocabulary()
	nofuzz := testSnapshot()
	nofuzz.Fuzzy = nil
	for _, snap := range []*Snapshot{testSnapshot(), full, nofuzz} {
		var buf bytes.Buffer
		if _, err := snap.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
		f.Add(append(buf.Bytes(), "tail"...))
	}
	f.Add([]byte{})
	f.Add([]byte("WSNP"))
	f.Add([]byte("WSNP\x02\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(b []byte) {
			aliased, errAlias := parse(b, &mappedFile{data: b})
			copied, errCopy := parse(b, nil)
			if (errAlias == nil) != (errCopy == nil) || (errAlias != nil && errAlias.Error() != errCopy.Error()) {
				t.Fatalf("modes disagree: alias %v, copy %v", errAlias, errCopy)
			}
			if errAlias != nil {
				return
			}
			if !reflect.DeepEqual(dumpDict(aliased.Dict), dumpDict(copied.Dict)) ||
				!reflect.DeepEqual(aliased.Vocab, copied.Vocab) || (aliased.Fuzzy == nil) != (copied.Fuzzy == nil) {
				t.Fatal("modes decoded different snapshots")
			}
			if aliased.Fuzzy == nil {
				return
			}
			// A structurally accepted fuzzy section must also survive index
			// construction (which walks every posting) without panicking;
			// a validation error is a legitimate outcome, in both modes.
			_, errAlias = aliased.Dict.NewFuzzyIndexFromPacked(aliased.Fuzzy, 0.55)
			_, errCopy = copied.Dict.NewFuzzyIndexFromPacked(copied.Fuzzy, 0.55)
			if (errAlias == nil) != (errCopy == nil) {
				t.Fatalf("index construction disagrees: alias %v, copy %v", errAlias, errCopy)
			}
		}
		check(data)
		if len(data) > 9 {
			check(resealed(data, noop))
		}
	})
}
