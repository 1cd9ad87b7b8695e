package snapfile

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"unsafe"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/qindex"
	"disasso/internal/query"
)

// Snapshot is one opened snapshot file: the decoded forest plus index and
// estimator state served, where the platform allows, as zero-copy views over
// the file bytes. A Snapshot (and everything derived from it) is immutable
// and safe for concurrent use.
//
// Lifetime: when the file is memory-mapped, the slabs returned by Index and
// Singles point into the mapping. The mapping is released by Close, or — the
// serving path, where in-flight readers may outlive a registry swap — by a
// GC cleanup once the Snapshot is unreachable. The Index pins the Snapshot
// (qindex.FromSlabs retains it), so holding any derived view keeps the
// mapping alive.
type Snapshot struct {
	meta    Meta
	data    []byte
	mapped  bool
	cleanup runtime.Cleanup

	forest  *core.Anonymized
	ix      *qindex.Index
	singles []query.Estimate

	// original lazily decodes the retained original records (nil when the
	// snapshot was written without them).
	original func() (*dataset.Dataset, error)
}

// Meta returns the snapshot's metadata section.
func (s *Snapshot) Meta() Meta { return s.meta }

// Forest returns the decoded published cluster forest.
func (s *Snapshot) Forest() *core.Anonymized { return s.forest }

// Index returns the inverted index over the forest. On little-endian 64-bit
// hosts with a mapped file its slabs are views into the mapping.
func (s *Snapshot) Index() *qindex.Index { return s.ix }

// Singles returns the persisted singleton estimate table, rank order.
func (s *Snapshot) Singles() []query.Estimate { return s.singles }

// Mapped reports whether the snapshot serves from a memory mapping of the
// file (as opposed to a heap copy — the portable fallback).
func (s *Snapshot) Mapped() bool { return s.mapped }

// HasOriginal reports whether the snapshot retains the original records.
func (s *Snapshot) HasOriginal() bool { return s.original != nil }

// Original decodes (once) and returns the retained original dataset.
// It must only be called when HasOriginal is true.
func (s *Snapshot) Original() (*dataset.Dataset, error) { return s.original() }

// Close releases the file mapping, if any. It must not be called while
// derived views (Index slabs, Singles) are still in use; long-lived servers
// instead drop all references and let the GC cleanup release the mapping.
func (s *Snapshot) Close() error {
	if !s.mapped {
		return nil
	}
	s.cleanup.Stop()
	s.mapped = false
	data := s.data
	s.data = nil
	return munmapBytes(data)
}

// Open reads the snapshot at path, memory-mapping it when the platform
// supports it and falling back to a heap read otherwise. All section CRCs
// are verified before anything is served.
func Open(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only descriptor; the mapping outlives it
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < headerSize {
		return nil, fmt.Errorf("snapfile: %s: %d bytes is smaller than the header", path, size)
	}
	if data, ok := mmapFile(f, size); ok {
		s, err := parse(data, true)
		if err != nil {
			_ = munmapBytes(data)
			return nil, fmt.Errorf("snapfile: %s: %w", path, err)
		}
		// The serving path never calls Close (in-flight readers may hold
		// slab views across a registry swap); the mapping is released when
		// the Snapshot becomes unreachable.
		s.cleanup = runtime.AddCleanup(s, func(b []byte) { _ = munmapBytes(b) }, data)
		return s, nil
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
		return nil, fmt.Errorf("snapfile: %s: %w", path, err)
	}
	s, err := parse(data, false)
	if err != nil {
		return nil, fmt.Errorf("snapfile: %s: %w", path, err)
	}
	return s, nil
}

// Decode parses a snapshot from an in-memory byte slice (no mapping) — the
// portable io.ReaderAt-style path and the fuzz entry point. The returned
// Snapshot may alias data; callers must not modify it afterwards.
func Decode(data []byte) (*Snapshot, error) {
	return parse(data, false)
}

// parse validates the whole file — header, table bounds, alignment, CRCs,
// slab invariants — and assembles the Snapshot. Nothing is trusted before
// its CRC passes, and nothing structural (offsets, counts, cluster ids) is
// trusted before it is range-checked, so arbitrary input bytes can at worst
// produce an error (the fuzz target enforces this).
func parse(data []byte, mapped bool) (*Snapshot, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("truncated header: %d bytes", len(data))
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != formatVersion {
		return nil, fmt.Errorf("unsupported format version %d", v)
	}
	// Section ids are unique and each one defined, so the count is the
	// required sections, plus one when the original section is present.
	count := binary.LittleEndian.Uint32(data[8:])
	if count < uint32(len(requiredSections)) || count > uint32(len(requiredSections))+1 {
		return nil, fmt.Errorf("implausible section count %d", count)
	}
	tableEnd := headerSize + int(count)*tableEntrySize
	if tableEnd > len(data) {
		return nil, fmt.Errorf("section table overruns the file")
	}

	secs := make(map[uint32][]byte, count)
	for i := 0; i < int(count); i++ {
		entry := data[headerSize+i*tableEntrySize:]
		id := binary.LittleEndian.Uint32(entry)
		crc := binary.LittleEndian.Uint32(entry[4:])
		off := binary.LittleEndian.Uint64(entry[8:])
		length := binary.LittleEndian.Uint64(entry[16:])
		// An id the format does not define is damage, not an extension: a
		// flipped bit in the original section's id would otherwise load the
		// file without its originals.
		if id != secOriginal && !slices.Contains(requiredSections, id) {
			return nil, fmt.Errorf("unknown section id %d", id)
		}
		if off%sectionAlign != 0 {
			return nil, fmt.Errorf("section %d: offset %d not %d-aligned", id, off, sectionAlign)
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("section %d: [%d, %d+%d) overruns the file", id, off, off, length)
		}
		if _, dup := secs[id]; dup {
			return nil, fmt.Errorf("duplicate section id %d", id)
		}
		payload := data[off : off+length]
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, fmt.Errorf("section %d: CRC mismatch (stored %08x, computed %08x)", id, crc, got)
		}
		secs[id] = payload
	}
	for _, id := range requiredSections {
		if _, ok := secs[id]; !ok {
			return nil, fmt.Errorf("missing required section %d", id)
		}
	}

	s := &Snapshot{data: data, mapped: mapped}
	if err := json.Unmarshal(secs[secMeta], &s.meta); err != nil {
		return nil, fmt.Errorf("meta section: %w", err)
	}
	if s.meta.Records < 0 {
		return nil, fmt.Errorf("meta section: negative record count %d", s.meta.Records)
	}
	forest, err := core.DecodeBinary(secs[secForest])
	if err != nil {
		return nil, fmt.Errorf("forest section: %w", err)
	}
	s.forest = forest

	terms, err := decodeTerms(secs[secDomain])
	if err != nil {
		return nil, err
	}
	n := len(terms)
	postOff, err := decodeOffsets(secs[secPostOff], n)
	if err != nil {
		return nil, err
	}
	post, err := decodePostings(secs[secPostings], postOff, len(forest.Clusters))
	if err != nil {
		return nil, err
	}
	s.singles, err = decodeSingles(secs[secSingles], n)
	if err != nil {
		return nil, err
	}
	s.ix = qindex.FromSlabs(terms, post, postOff, s)

	if payload, ok := secs[secOriginal]; ok {
		records := s.meta.Records
		s.original = sync.OnceValues(func() (*dataset.Dataset, error) {
			return decodeOriginal(payload, records)
		})
	}
	return s, nil
}

// hostLittleEndian reports whether the running host stores integers
// little-endian — the precondition for casting the file's slabs in place.
var hostLittleEndian = func() bool {
	var b [4]byte
	binary.NativeEndian.PutUint32(b[:], 1)
	return b[0] == 1
}()

// Cast eligibility per slab type: the host must be little-endian and the Go
// in-memory layout must match the on-disk layout exactly (field offsets and
// total size). On any mismatch — big-endian hosts, 32-bit ints — slab falls
// back to an explicit little-endian copy, the portable path.
var (
	// canCast32 covers the domain (dataset.Term), offset and posting
	// (int32) slabs.
	canCast32      = hostLittleEndian && unsafe.Sizeof(dataset.Term(0)) == int32Size
	canCastSingles = hostLittleEndian &&
		unsafe.Sizeof(query.Estimate{}) == estimateSize &&
		unsafe.Offsetof(query.Estimate{}.Lower) == 0 &&
		unsafe.Offsetof(query.Estimate{}.Upper) == 8 &&
		unsafe.Offsetof(query.Estimate{}.Expected) == 16
)

// slab returns the section payload b as len(b)/size elements of T: a
// zero-copy view of b when cast holds and b is aligned for T, otherwise a
// copy decoded from each size-byte stride by dec. The caller checks that
// size divides len(b) and, for cast, that T's layout is the on-disk one.
// Section offsets are 8-aligned within the file and both mmap and the Go
// allocator align the base, but a defensive alignment check costs nothing.
func slab[T any](b []byte, size int, cast bool, dec func([]byte) T) []T {
	n := len(b) / size
	if n == 0 {
		return nil
	}
	if p := unsafe.Pointer(unsafe.SliceData(b)); cast && uintptr(p)%unsafe.Alignof(*new(T)) == 0 {
		return unsafe.Slice((*T)(p), n)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = dec(b[i*size:])
	}
	return out
}

// le32 decodes one little-endian 4-byte integer, slab's copy path for the
// domain, offset and posting sections.
func le32[T ~int32](b []byte) T { return T(int32(binary.LittleEndian.Uint32(b))) }

func decodeTerms(b []byte) ([]dataset.Term, error) {
	if len(b)%int32Size != 0 {
		return nil, fmt.Errorf("domain section: %d bytes is not a multiple of %d", len(b), int32Size)
	}
	terms := slab(b, int32Size, canCast32, le32[dataset.Term])
	for i := 1; i < len(terms); i++ {
		if terms[i] <= terms[i-1] {
			return nil, fmt.Errorf("domain section: terms not strictly ascending at rank %d", i)
		}
	}
	return terms, nil
}

func decodeOffsets(b []byte, terms int) ([]int32, error) {
	if len(b) != (terms+1)*int32Size {
		return nil, fmt.Errorf("postoff section: %d bytes for %d terms (want %d)", len(b), terms, (terms+1)*int32Size)
	}
	off := slab(b, int32Size, canCast32, le32[int32])
	if off[0] != 0 {
		return nil, fmt.Errorf("postoff section: first offset must be 0")
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return nil, fmt.Errorf("postoff section: offsets decrease at rank %d", i)
		}
	}
	return off, nil
}

func decodePostings(b []byte, postOff []int32, clusters int) ([]int32, error) {
	if len(b)%int32Size != 0 {
		return nil, fmt.Errorf("postings section: %d bytes is not a multiple of %d", len(b), int32Size)
	}
	if n := len(b) / int32Size; int(postOff[len(postOff)-1]) != n {
		return nil, fmt.Errorf("postings section: %d postings but prefix sums end at %d", n, postOff[len(postOff)-1])
	}
	post := slab(b, int32Size, canCast32, le32[int32])
	// Per-rank lists must be strictly ascending with ids in range — the
	// invariants IntersectClusters' binary searches and the estimator's
	// Clusters[ci] lookups rely on.
	for r := 0; r+1 < len(postOff); r++ {
		list := post[postOff[r]:postOff[r+1]]
		for i, ci := range list {
			if ci < 0 || int(ci) >= clusters {
				return nil, fmt.Errorf("postings section: rank %d: cluster id %d out of range [0, %d)", r, ci, clusters)
			}
			if i > 0 && ci <= list[i-1] {
				return nil, fmt.Errorf("postings section: rank %d: posting list not strictly ascending", r)
			}
		}
	}
	return post, nil
}

func decodeSingles(b []byte, terms int) ([]query.Estimate, error) {
	if len(b) != terms*estimateSize {
		return nil, fmt.Errorf("singles section: %d bytes for %d terms (want %d)", len(b), terms, terms*estimateSize)
	}
	return slab(b, estimateSize, canCastSingles, func(b []byte) query.Estimate {
		return query.Estimate{
			Lower:    int(int64(binary.LittleEndian.Uint64(b))),
			Upper:    int(int64(binary.LittleEndian.Uint64(b[8:]))),
			Expected: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		}
	}), nil
}

// decodeOriginal replays the delta-varint record stream of the original
// section. The record count must match the meta section — a cheap
// end-to-end consistency check across sections.
func decodeOriginal(b []byte, want int) (*dataset.Dataset, error) {
	rr := dataset.NewBinaryRecordReader(bytes.NewReader(b))
	records := make([]dataset.Record, 0, min(want, 1<<16))
	for {
		r, err := rr.Next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("original section: %w", err)
		}
		records = append(records, r)
	}
	if len(records) != want {
		return nil, fmt.Errorf("original section: %d records, meta says %d", len(records), want)
	}
	return dataset.FromRecords(records), nil
}
