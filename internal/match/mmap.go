package match

import (
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"
)

// Raw packed fuzzy-index layout — the one serialized form of a
// PackedFuzzy, embedded in the serve snapshot. The posting slabs are
// fixed-width little-endian arrays at controlled alignment, so a reader
// holding the serialized bytes in memory — a memory-mapped snapshot
// file — can alias them in place with zero copying and zero decode
// work. Boot cost is O(grams) for the gram table instead of
// O(postings), and the slab pages stay shared, clean and evictable in
// the OS page cache across every process serving the same snapshot.
//
// Layout, at an 8-byte-aligned file offset (the writer pads from the
// offset it is handed; the reader derives the same padding):
//
//	header: 4 × uint32 LE — string count, gram count, posting count,
//	  reserved (must be 0)
//	gram ends: gram count × uint32 LE — cumulative end offsets of each
//	  gram's UTF-8 bytes in the blob (so gram g is blob[ends[g-1]:ends[g]])
//	gram blob: the gram bytes, padded with zeros to a multiple of 4
//	offsets: (gram count + 1) × uint32 LE
//	postings: posting count × uint32 LE
//	mults: posting count × uint32 LE
//
// Every array therefore starts 4-byte aligned whenever the section
// start is, which is what the in-place int32 views require.

// rawAlign is the section alignment; 8 keeps the door open for future
// 64-bit slabs and is what mmap page bases guarantee.
const rawAlign = 8

// maxPackedGrams and maxPackedPostings bound the counts read from a
// file; a larger prefix means a corrupt file and must not drive an
// allocation.
const (
	maxPackedGrams    = 1 << 26
	maxPackedPostings = 1 << 28
)

// rawPad returns the number of zero bytes needed to advance off to the
// next rawAlign boundary.
func rawPad(off int64) int {
	return int((rawAlign - off%rawAlign) % rawAlign)
}

var rawZeros [rawAlign]byte

// WriteRaw serializes the packed index in the raw slab layout. off must
// be the file offset at which the first byte will land — the writer
// pads to alignment from there, and a reader at the same offset derives
// the identical padding.
func (p *PackedFuzzy) WriteRaw(w io.Writer, off int64) error {
	if _, err := w.Write(rawZeros[:rawPad(off)]); err != nil {
		return err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(p.NumStrings))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(p.Grams)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(p.Postings)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	// Gram end-offset table, then the blob.
	buf := make([]byte, 0, 1<<15)
	end := uint32(0)
	for _, g := range p.Grams {
		end += uint32(len(g))
		buf = binary.LittleEndian.AppendUint32(buf, end)
		if len(buf) >= 1<<15 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	for _, g := range p.Grams {
		buf = append(buf, g...)
		if len(buf) >= 1<<15 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, rawZeros[:(4-end%4)%4]...)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for _, slab := range [][]int32{p.Offsets, p.Postings, p.Mults} {
		if err := writeU32Slab(w, buf[:0], slab); err != nil {
			return err
		}
	}
	return nil
}

// writeU32Slab writes an int32 slab as little-endian uint32s through a
// reusable chunk buffer.
func writeU32Slab(w io.Writer, buf []byte, vals []int32) error {
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		if len(buf) >= 1<<15 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// rawHeader decodes and sanity-checks the fixed header, returning the
// three counts.
func rawHeader(hdr []byte) (numStrings, numGrams, numPostings uint64, err error) {
	numStrings = uint64(binary.LittleEndian.Uint32(hdr[0:]))
	numGrams = uint64(binary.LittleEndian.Uint32(hdr[4:]))
	numPostings = uint64(binary.LittleEndian.Uint32(hdr[8:]))
	if reserved := binary.LittleEndian.Uint32(hdr[12:]); reserved != 0 {
		return 0, 0, 0, fmt.Errorf("match: raw packed index reserved word %#x", reserved)
	}
	if numGrams > maxPackedGrams {
		return 0, 0, 0, fmt.Errorf("match: raw packed gram count %d exceeds limit", numGrams)
	}
	if numPostings > maxPackedPostings {
		return 0, 0, 0, fmt.Errorf("match: raw packed posting count %d exceeds limit", numPostings)
	}
	return numStrings, numGrams, numPostings, nil
}

// checkRawOffsets verifies the structural invariants that keep every
// downstream loop in bounds: offsets non-decreasing, starting at 0 and
// ending exactly at the posting count. (Semantic invariants — ascending
// postings, positive multiplicities — are PackedFuzzy.validate's job.)
func checkRawOffsets(offsets []int32, numPostings uint64) error {
	if uint64(uint32(offsets[0])) != 0 {
		return fmt.Errorf("match: raw packed offsets start at %d", offsets[0])
	}
	prev := uint32(0)
	for _, o := range offsets[1:] {
		if uint32(o) < prev {
			return fmt.Errorf("match: raw packed offsets decrease")
		}
		prev = uint32(o)
	}
	if uint64(prev) != numPostings {
		return fmt.Errorf("match: raw packed offsets end at %d, want %d postings", prev, numPostings)
	}
	return nil
}

// gramsFromTable materializes the gram string table given the cumulative
// end offsets and the blob. str builds each string: a zero-copy unsafe
// view when aliasing, string() when copying.
func gramsFromTable(ends []int32, blob []byte, str func([]byte) string) ([]string, error) {
	grams := make([]string, len(ends))
	prev := uint32(0)
	for i, e32 := range ends {
		e := uint32(e32)
		if e < prev || uint64(e) > uint64(len(blob)) {
			return nil, fmt.Errorf("match: raw packed gram table corrupt at gram %d", i)
		}
		if e-prev > 64 {
			return nil, fmt.Errorf("match: raw packed gram %d length %d exceeds limit", i, e-prev)
		}
		grams[i] = str(blob[prev:e])
		prev = e
	}
	return grams, nil
}

// MapPackedFuzzy decodes the raw section WriteRaw wrote at absolute
// offset off of data, the whole serialized file. It is the only reader
// of the layout and has two modes. With a pin — the owner of data,
// typically an mmap handle — the slabs alias data in place: zero
// copies, zero per-posting decode work, and the pin is retained on the
// returned index and everything built from it, so the owner outlives
// every alias (Mapped() reports it). With a nil pin everything is
// copied to the heap and data may be dropped as soon as the call
// returns. The second result is the offset of the first byte past the
// section.
//
// Every structural property that keeps later loops in bounds is checked
// here, because data may be an arbitrary corrupt file; the checks are
// O(grams), not O(postings). If data[off:] is not 4-byte aligned in
// memory (never the case for an mmap base, possibly the case for a tiny
// test buffer), the slabs are copied to the heap instead of aliased.
func MapPackedFuzzy(data []byte, off int64, pin any) (*PackedFuzzy, int64, error) {
	if off < 0 || off > int64(len(data)) {
		return nil, 0, fmt.Errorf("match: raw packed section offset %d out of file", off)
	}
	off += int64(rawPad(off))
	// All size arithmetic in uint64: counts are ≤ 2^32 and bounded above,
	// so need can never overflow, and a truncated file fails the single
	// comparison against len(data).
	if uint64(off)+16 > uint64(len(data)) {
		return nil, 0, fmt.Errorf("match: raw packed index truncated in header")
	}
	numStrings, numGrams, numPostings, err := rawHeader(data[off : off+16 : off+16])
	if err != nil {
		return nil, 0, err
	}
	endsOff := uint64(off) + 16
	blobOff := endsOff + 4*numGrams
	if blobOff > uint64(len(data)) {
		return nil, 0, fmt.Errorf("match: raw packed index truncated in gram table")
	}
	// The gram-end table is copied out regardless of aliasing: it is only
	// needed transiently to slice the blob, and copying sidesteps any
	// alignment question before the check below.
	ends := copyInt32(data, endsOff, numGrams)
	blobLen := uint64(0)
	if numGrams > 0 {
		blobLen = uint64(uint32(ends[numGrams-1]))
	}
	if blobOff+blobLen > uint64(len(data)) {
		return nil, 0, fmt.Errorf("match: raw packed index truncated in gram blob")
	}
	blob := data[blobOff : blobOff+blobLen : blobOff+blobLen]
	offsetsOff := blobOff + blobLen + (4-blobLen%4)%4
	postingsOff := offsetsOff + 4*(numGrams+1)
	multsOff := postingsOff + 4*numPostings
	sectionEnd := multsOff + 4*numPostings
	if sectionEnd > uint64(len(data)) {
		return nil, 0, fmt.Errorf("match: raw packed index truncated in posting slabs")
	}

	// Alias only when there is an owner to pin and the backing is aligned
	// for int32 views (an mmap base always is; a tiny test buffer may not
	// be). Otherwise copy everything out, so the result never dangles.
	alias := pin != nil && uintptr(unsafe.Pointer(unsafe.SliceData(data)))%4 == 0
	str := func(b []byte) string { return string(b) }
	view := copyInt32
	if alias {
		str = func(b []byte) string {
			if len(b) == 0 {
				return ""
			}
			return unsafe.String(unsafe.SliceData(b), len(b))
		}
		view = viewInt32
	}

	grams, err := gramsFromTable(ends, blob, str)
	if err != nil {
		return nil, 0, err
	}
	p := &PackedFuzzy{
		NumStrings: int(numStrings),
		Grams:      grams,
		Offsets:    view(data, offsetsOff, numGrams+1),
		Postings:   view(data, postingsOff, numPostings),
		Mults:      view(data, multsOff, numPostings),
	}
	if err := checkRawOffsets(p.Offsets, numPostings); err != nil {
		return nil, 0, err
	}
	if alias {
		p.backing = pin
	}
	return p, int64(sectionEnd), nil
}

// viewInt32 aliases n little-endian uint32s at data[off:] as an []int32
// without copying. The caller has bounds-checked off and n; alignment is
// the caller's responsibility. Only valid on little-endian hosts —
// every platform this project targets — and guarded by a one-time check.
func viewInt32(data []byte, off, n uint64) []int32 {
	if n == 0 {
		return []int32{}
	}
	if !hostLittleEndian {
		return copyInt32(data, off, n)
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&data[off])), n)
}

// copyInt32 decodes n little-endian uint32s at data[off:] into a fresh
// heap slice.
func copyInt32(data []byte, off, n uint64) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(data[off+4*uint64(i):]))
	}
	return out
}

// hostLittleEndian reports the byte order the in-place int32 views
// assume.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()
