package snapfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/query"
)

// testContents builds a deterministic publication — pinned PRNG dataset,
// fixed options — so every test (and the golden pin) sees identical bytes.
func testContents(t testing.TB) Contents {
	t.Helper()
	rng := rand.New(rand.NewPCG(0xD15A550, 0x60D1DA7A))
	records := make([]dataset.Record, 300)
	for i := range records {
		terms := make([]dataset.Term, 1+rng.IntN(6))
		for j := range terms {
			terms[j] = dataset.Term(rng.IntN(50))
		}
		records[i] = dataset.NewRecord(terms...)
	}
	d := dataset.FromRecords(records)
	opts := core.Options{K: 3, M: 2, Seed: 9, MaxShardRecords: 64}
	a, err := core.Anonymize(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	est := query.NewEstimator(a)
	sum := a.Stats()
	return Contents{
		Meta: Meta{
			Name: "golden", K: 3, M: 2,
			Records:      sum.Records,
			Terms:        sum.DistinctTerms,
			Clusters:     len(a.Clusters),
			Version:      1,
			ShardRecords: 64,
			Opts:         opts,
			Summary:      sum,
		},
		Forest:   a,
		Index:    est.Index(),
		Singles:  est.Singles(),
		Original: d,
	}
}

func encode(t testing.TB, c Contents) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTrip writes a snapshot and decodes it back, checking every
// section survives exactly.
func TestRoundTrip(t *testing.T) {
	c := testContents(t)
	s, err := Decode(encode(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Meta(), c.Meta) {
		t.Errorf("meta: got %+v, want %+v", s.Meta(), c.Meta)
	}
	// Forest equality via its canonical encoding.
	var want, got bytes.Buffer
	if err := core.WriteBinary(&want, c.Forest); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteBinary(&got, s.Forest()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("forest did not round-trip")
	}
	wTerms, wPost, wOff := c.Index.Slabs()
	gTerms, gPost, gOff := s.Index().Slabs()
	if !slices.Equal(wTerms, gTerms) || !slices.Equal(wPost, gPost) || !slices.Equal(wOff, gOff) {
		t.Error("index slabs did not round-trip")
	}
	if !slices.Equal(c.Singles, s.Singles()) {
		t.Error("singles did not round-trip")
	}
	if !s.HasOriginal() {
		t.Fatal("original section missing")
	}
	orig, err := s.Original()
	if err != nil {
		t.Fatal(err)
	}
	if orig.Len() != c.Original.Len() {
		t.Fatalf("original: %d records, want %d", orig.Len(), c.Original.Len())
	}
	for i, r := range orig.Records {
		if !slices.Equal(r, c.Original.Records[i]) {
			t.Fatalf("original record %d differs", i)
		}
	}

	// Recovered estimator answers identically to a fresh build.
	fresh := query.NewEstimator(c.Forest)
	rec := query.NewRecoveredEstimator(s.Forest(), s.Index(), s.Singles())
	queries := []dataset.Record{
		dataset.NewRecord(3), dataset.NewRecord(7, 12), dataset.NewRecord(1, 4, 9), nil,
	}
	for _, q := range queries {
		if w, g := fresh.Support(q), rec.Support(q); w != g {
			t.Errorf("Support(%v): recovered %+v, fresh %+v", q, g, w)
		}
	}
}

// TestWithoutOriginal covers the streamed-publish shape: no original section.
func TestWithoutOriginal(t *testing.T) {
	c := testContents(t)
	c.Original = nil
	c.Meta.Streamed = true
	s, err := Decode(encode(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if s.HasOriginal() {
		t.Error("HasOriginal = true without an original section")
	}
	if !s.Meta().Streamed {
		t.Error("streamed flag lost")
	}
}

// TestDeterministicOutput pins that equal contents produce equal bytes.
func TestDeterministicOutput(t *testing.T) {
	a := encode(t, testContents(t))
	b := encode(t, testContents(t))
	if !bytes.Equal(a, b) {
		t.Fatal("two writes of equal contents differ")
	}
}

// goldenSHA256 pins the exact output bytes for the testContents publication.
// A change here is a format change: bump formatVersion and regenerate
// testdata/golden.snap (UPDATE_GOLDEN=1 go test -run TestGoldenFile).
const goldenSHA256 = "3ddde87d6a73ebee0aa67796bbe3b748b8c79b29e81a8cfe57cbd2cb8327df17"

var update = os.Getenv("UPDATE_GOLDEN") != ""

func TestGoldenFile(t *testing.T) {
	raw := encode(t, testContents(t))
	sum := sha256.Sum256(raw)
	if update {
		if err := os.WriteFile(filepath.Join("testdata", "golden.snap"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote testdata/golden.snap, sha256 %s", hex.EncodeToString(sum[:]))
	}
	if got := hex.EncodeToString(sum[:]); got != goldenSHA256 {
		t.Errorf("output sha256 = %s, want %s (format drift?)", got, goldenSHA256)
	}
	disk, err := os.ReadFile(filepath.Join("testdata", "golden.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, raw) {
		t.Error("committed golden fixture differs from freshly written bytes")
	}
	// And the committed fixture must still open.
	if _, err := Decode(disk); err != nil {
		t.Errorf("decoding committed fixture: %v", err)
	}
}

// TestOpenServesFromMapping opens a snapshot file and asserts the posting
// slab is a view into the mapping — the zero-copy property — on platforms
// where the cast is eligible.
func TestOpenServesFromMapping(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.snap")
	if err := os.WriteFile(path, encode(t, testContents(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}()
	if !s.Mapped() {
		t.Skip("platform did not mmap; heap fallback in use")
	}
	if !canCast32 {
		t.Skip("posting layout not castable on this platform")
	}
	_, post, _ := s.Index().Slabs()
	base := uintptr(unsafe.Pointer(unsafe.SliceData(s.data)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(post)))
	if p < base || p >= base+uintptr(len(s.data)) {
		t.Error("posting slab is not backed by the file mapping")
	}
}

// TestCorruptionDetected damages the file everywhere its structure is
// declared, walking the parsed section table: every bit of every table
// entry, one bit inside every section payload, and a tear at every
// section's start offset must each fail Decode. So must short truncations,
// a bad magic and an unsupported version.
func TestCorruptionDetected(t *testing.T) {
	raw := encode(t, testContents(t))
	count := int(binary.LittleEndian.Uint32(raw[8:]))
	for i := 0; i < count; i++ {
		entry := headerSize + i*tableEntrySize
		for bit := 0; bit < tableEntrySize*8; bit++ {
			bad := slices.Clone(raw)
			bad[entry+bit/8] ^= 1 << (bit % 8)
			if _, err := Decode(bad); err == nil {
				t.Errorf("table entry %d: flipping bit %d not detected", i, bit)
			}
		}
		off := int(binary.LittleEndian.Uint64(raw[entry+8:]))
		length := int(binary.LittleEndian.Uint64(raw[entry+16:]))
		if length == 0 {
			t.Fatalf("table entry %d: empty section leaves no payload to damage", i)
		}
		bad := slices.Clone(raw)
		bad[off+length/2] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Errorf("table entry %d: payload flip at offset %d not detected", i, off+length/2)
		}
		if _, err := Decode(raw[:off]); err == nil {
			t.Errorf("table entry %d: tear at section start %d not detected", i, off)
		}
	}
	for _, cut := range []int{0, 3, headerSize - 1, headerSize + 5} {
		if _, err := Decode(raw[:cut]); err == nil {
			t.Errorf("truncation to %d bytes not detected", cut)
		}
	}
	bad := slices.Clone(raw)
	copy(bad, "NOPE")
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic not detected")
	}
	bad = slices.Clone(raw)
	bad[4] = 99 // unsupported version
	if _, err := Decode(bad); err == nil {
		t.Error("unsupported version not detected")
	}
}

// FuzzSnapfileReader throws arbitrary bytes at the parser: any input must
// either fail cleanly or produce a snapshot whose accessors can be exercised
// without panicking.
func FuzzSnapfileReader(f *testing.F) {
	c := Contents{}
	func() {
		defer func() { _ = recover() }()
		c = testContents(f)
	}()
	if c.Forest != nil {
		raw := encode(f, c)
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		flip := slices.Clone(raw)
		flip[len(flip)/3] ^= 0xFF
		f.Add(flip)
	}
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		// The parser accepted the bytes: everything reachable must hold up.
		_ = s.Meta()
		terms, post, postOff := s.Index().Slabs()
		if len(postOff) != len(terms)+1 {
			t.Fatalf("inconsistent slabs: %d terms, %d offsets", len(terms), len(postOff))
		}
		if int(postOff[len(terms)]) != len(post) {
			t.Fatalf("prefix sums end at %d, %d postings", postOff[len(terms)], len(post))
		}
		est := query.NewRecoveredEstimator(s.Forest(), s.Index(), s.Singles())
		if len(terms) > 0 {
			_ = est.Support(dataset.NewRecord(terms[0]))
			_ = est.Support(dataset.NewRecord(terms[0], terms[len(terms)-1]))
		}
		if s.HasOriginal() {
			_, _ = s.Original()
		}
	})
}
