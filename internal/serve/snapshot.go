// Package serve is the online half of the reproduction: a production
// serving layer over the artifacts the offline pipeline mines.
//
// The paper's system splits cleanly in two. Offline, the miner chews
// through search and click logs and emits a synonym dictionary; online, a
// low-latency tier matches live Web queries against that dictionary. This
// package implements the online tier:
//
//   - Snapshot: a versioned binary serialization of everything the online
//     tier needs (compiled dictionary, entity table, synonym map), so a
//     server starts in milliseconds instead of re-running the miner.
//   - Server: one domain — the engine over one snapshot behind an atomic
//     generation handle (Prepare/Install), so the snapshot-derived state
//     hot-swaps without dropping traffic (internal/serve/reload drives
//     it), plus a sharded CLOCK request cache with singleflight on misses.
//   - Registry: the one request surface over one or more domains — the
//     POST /v1/match and /v2/match handler (single and batched, domain-
//     routed and federated), the deprecated pre-v1 adapters, /statsz and
//     /admin/snapshot. A standalone Server is a one-domain registry.
//
// cmd/matchd is a thin flag-parsing wrapper around this package, and
// cmd/dictbuild produces Snapshot files.
package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"websyn/internal/match"
	"websyn/internal/rewrite"
)

// Snapshot bundles the online tier's read-only state: the compiled match
// dictionary, the entity table (ID -> canonical string), and the mined
// synonym listing per canonical norm. It is what dictbuild writes and
// matchd -snapshot loads.
type Snapshot struct {
	// Dataset names the data set the dictionary was mined from
	// ("Movies", "Cameras", ...). Informational.
	Dataset string
	// MinSim is the Dice-similarity threshold the fuzzy index should be
	// built with (the value the dictionary was tuned against offline).
	MinSim float64
	// Canonicals maps entity ID (the slice index) to the entity's
	// canonical string.
	Canonicals []string
	// Synonyms maps a canonical string's normalized form to its mined
	// synonyms.
	Synonyms map[string][]string
	// Dict is the compiled synonym dictionary.
	Dict *match.Dictionary
	// Fuzzy is the precomputed packed trigram index over Dict's strings.
	// When nil — a builder that skipped it — servers rebuild the index
	// from Dict.
	Fuzzy *match.PackedFuzzy
	// Vocab is the domain's attribute vocabulary for the structured
	// rewrite stage. When nil — a builder without entity-table access —
	// the /v2 surface still serves, with empty attribute lists and
	// residual == remainder.
	Vocab *rewrite.Vocabulary
	// Version is the file layout version this snapshot was read from;
	// 0 for snapshots built in-process (never serialized).
	Version int
}

// Snapshot file layout — WSNP version 4, the only serialization of
// serving state (all integers uvarint unless noted, all strings uvarint
// length + UTF-8 bytes):
//
//	magic "WSNP", version byte (4),
//	dataset string,
//	minSim float64 bits (fixed 8 bytes, big endian),
//	entity count, then per entity (ID = position): canonical string,
//	synonym-record count, then per record:
//	  norm string, synonym count, synonyms,
//	dictionary distinct-string count, then per string:
//	  text string, entry count, then per entry:
//	    entityID, score float64 bits (fixed 8 bytes), source string,
//	packed fuzzy-index presence byte (0 or 1), then when present the
//	  aligned raw slab layout of match.PackedFuzzy.WriteRaw (zero padding
//	  to an 8-byte file offset, then fixed-width little-endian arrays),
//	attribute-vocabulary presence byte (0 or 1), then when present: blob
//	  length, then the rewrite.Vocabulary binary form (internal/rewrite's
//	  self-contained codec),
//	CRC-32 (IEEE) of everything above (fixed 4 bytes, big endian) — the
//	  file's last four bytes; nothing may follow them.
//
// parse is the one decoder of this layout. The version byte is bumped on
// any incompatible layout change and a reader refuses every version but
// its own: snapshots are build artifacts, cheap to regenerate with
// cmd/dictbuild, so there is no compatibility reader to keep honest. The
// trailing checksum catches truncated or corrupted files before a server
// boots on bad data.

var snapshotMagic = [4]byte{'W', 'S', 'N', 'P'}

// SnapshotVersion is the snapshot layout version this binary writes and
// reads.
const SnapshotVersion = 4

// snapshotMinLen is the shortest conceivable file: magic, version, CRC.
const snapshotMinLen = len(snapshotMagic) + 1 + 4

// crcWriter hashes and counts every byte it forwards. The bufio.Writer
// underneath keeps the first write error and returns it from every
// later Write and from Flush, so WriteTo checks errors once, at Flush.
type crcWriter struct {
	w   *bufio.Writer
	sum hash.Hash32
	n   int64
	buf [binary.MaxVarintLen64]byte
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.sum.Write(p[:n])
	cw.n += int64(n)
	return n, err
}

func (cw *crcWriter) uvarint(v uint64) {
	cw.Write(cw.buf[:binary.PutUvarint(cw.buf[:], v)])
}

func (cw *crcWriter) str(s string) {
	cw.uvarint(uint64(len(s)))
	io.WriteString(cw, s)
}

func (cw *crcWriter) float(f float64) {
	binary.BigEndian.PutUint64(cw.buf[:8], math.Float64bits(f))
	cw.Write(cw.buf[:8])
}

// WriteTo serializes the snapshot. It returns the number of bytes
// written.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw, sum: crc32.NewIEEE()}

	cw.Write(snapshotMagic[:])
	cw.Write([]byte{SnapshotVersion})
	cw.str(s.Dataset)
	cw.float(s.MinSim)

	cw.uvarint(uint64(len(s.Canonicals)))
	for _, c := range s.Canonicals {
		cw.str(c)
	}

	// Sorted, so snapshot bytes are deterministic for a given state.
	norms := make([]string, 0, len(s.Synonyms))
	for norm := range s.Synonyms {
		norms = append(norms, norm)
	}
	sort.Strings(norms)
	cw.uvarint(uint64(len(norms)))
	for _, norm := range norms {
		cw.str(norm)
		syns := s.Synonyms[norm]
		cw.uvarint(uint64(len(syns)))
		for _, syn := range syns {
			cw.str(syn)
		}
	}

	cw.uvarint(uint64(s.Dict.DistinctStrings()))
	s.Dict.ForEach(func(text string, entries []match.Entry) {
		cw.str(text)
		cw.uvarint(uint64(len(entries)))
		for _, e := range entries {
			cw.uvarint(uint64(e.EntityID))
			cw.float(e.Score)
			cw.str(e.Source)
		}
	})

	if s.Fuzzy == nil {
		cw.Write([]byte{0})
	} else {
		cw.Write([]byte{1})
		// The raw writer pads from the current file offset so the slabs
		// land at mmap-friendly alignment.
		if err := s.Fuzzy.WriteRaw(cw, cw.n); err != nil {
			return cw.n, err
		}
	}

	if s.Vocab == nil {
		cw.Write([]byte{0})
	} else {
		cw.Write([]byte{1})
		blob := s.Vocab.AppendBinary(nil)
		cw.uvarint(uint64(len(blob)))
		cw.Write(blob)
	}

	// Trailing checksum of everything written so far (not itself hashed).
	bw.Write(binary.BigEndian.AppendUint32(nil, cw.sum.Sum32()))
	return cw.n + 4, bw.Flush()
}

// reader is a sticky-error cursor over a snapshot's bytes (the idiom of
// rewrite's vocabulary decoder): the first failure is kept, later reads
// yield zero values, and the decoder checks once per loop and once at
// the end. Every length and count is checked against the bytes that
// remain, so nothing read from a corrupt file can drive a loop or a read
// past the file's own size (capacity hints are capped besides).
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("serve: snapshot offset %d: "+format, append([]any{r.off}, args...)...)
	}
}

// take returns the next n bytes as a view of the input.
func (r *reader) take(n uint64, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("%s of %d bytes runs past the end of the file", what, n)
		return nil
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v
}

func (r *reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad or truncated %s", what)
		return 0
	}
	r.off += n
	return v
}

// count reads an element count. Every counted element occupies at least
// one byte, so a count past the remaining bytes is corrupt.
func (r *reader) count(what string) int {
	n := r.uvarint(what)
	if r.err == nil && n > uint64(len(r.b)-r.off) {
		r.fail("%s %d exceeds the %d bytes left", what, n, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

func (r *reader) str(what string) string {
	return string(r.take(r.uvarint(what), what))
}

func (r *reader) float(what string) float64 {
	if b := r.take(8, what); b != nil {
		return math.Float64frombits(binary.BigEndian.Uint64(b))
	}
	return 0
}

// present reads a section's presence byte.
func (r *reader) present(what string) bool {
	b := r.take(1, what)
	if b != nil && b[0] > 1 {
		r.fail("bad %s byte %d", what, b[0])
	}
	return b != nil && b[0] == 1
}

// parse decodes one whole serialized snapshot — the only function that
// knows the WSNP layout, behind every opener. pin selects the mode, as
// in match.MapPackedFuzzy: with a pin (the owner of data, an mmap
// handle) the fuzzy slabs alias data in place and carry the pin; with a
// nil pin everything is copied out and data may be dropped on return.
// Everything else is decoded onto the heap either way. Integrity first:
// one CRC pass over the file rejects corruption before any structure is
// trusted, and the CRC must be the file's last four bytes.
func parse(data []byte, pin any) (*Snapshot, error) {
	if len(data) < snapshotMinLen {
		return nil, fmt.Errorf("serve: snapshot too short (%d bytes)", len(data))
	}
	if [4]byte(data) != snapshotMagic {
		return nil, fmt.Errorf("serve: bad snapshot magic %q", data[:4])
	}
	if ver := data[4]; ver != SnapshotVersion {
		return nil, fmt.Errorf("serve: snapshot layout version %d, this binary reads only version %d: rebuild the snapshot with cmd/dictbuild", ver, SnapshotVersion)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.BigEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("serve: snapshot checksum mismatch (stored %08x, computed %08x)", got, want)
	}

	r := &reader{b: body, off: len(snapshotMagic) + 1}
	snap := &Snapshot{Version: SnapshotVersion}
	snap.Dataset = r.str("dataset")
	snap.MinSim = r.float("minSim")

	nEnt := r.count("entity count")
	snap.Canonicals = make([]string, 0, min(nEnt, 1<<20))
	for i := 0; i < nEnt && r.err == nil; i++ {
		snap.Canonicals = append(snap.Canonicals, r.str("canonical"))
	}

	nSyn := r.count("synonym-record count")
	snap.Synonyms = make(map[string][]string, min(nSyn, 1<<20))
	for i := 0; i < nSyn && r.err == nil; i++ {
		norm := r.str("synonym norm")
		cnt := r.count("synonym count")
		syns := make([]string, 0, min(cnt, 1<<16))
		for j := 0; j < cnt && r.err == nil; j++ {
			syns = append(syns, r.str("synonym"))
		}
		snap.Synonyms[norm] = syns
	}

	nStr := r.count("dictionary string count")
	snap.Dict = match.NewDictionary()
	for i := 0; i < nStr && r.err == nil; i++ {
		text := r.str("dictionary string")
		cnt := r.count("entry count")
		for j := 0; j < cnt && r.err == nil; j++ {
			e := match.Entry{
				EntityID: int(r.uvarint("entity ID")),
				Score:    r.float("score"),
				Source:   r.str("entry source"),
			}
			if r.err == nil {
				snap.Dict.Add(text, e)
			}
		}
	}

	if r.present("fuzzy-index presence") && r.err == nil {
		p, end, err := match.MapPackedFuzzy(body, int64(r.off), pin)
		if err != nil {
			return nil, fmt.Errorf("serve: snapshot offset %d: packed fuzzy index: %w", r.off, err)
		}
		snap.Fuzzy, r.off = p, int(end)
	}

	if r.present("vocabulary presence") {
		blob := r.take(r.uvarint("vocabulary length"), "vocabulary")
		if r.err == nil {
			var err error
			if snap.Vocab, err = rewrite.DecodeBinary(blob); err != nil {
				return nil, fmt.Errorf("serve: decoding vocabulary: %w", err)
			}
		}
	}

	if r.err == nil && r.off != len(body) {
		r.fail("%d undecoded bytes before the checksum", len(body)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return snap, nil
}

// ReadSnapshot loads a snapshot serialized by WriteTo from a stream,
// copy mode: the bytes are read whole, decoded, and dropped.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("serve: reading snapshot: %w", err)
	}
	return parse(data, nil)
}
