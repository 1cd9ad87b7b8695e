package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"disasso/internal/dataset"
	"disasso/internal/quest"
)

func TestBinaryRoundTripFigure2(t *testing.T) {
	d := dataset.FromRecords(figure2Records())
	a, err := Anonymize(d, Options{K: 3, M: 2, MaxClusterSize: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, a); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Error("binary round trip not identical")
	}
}

// TestBinaryRoundTripRandom round-trips a publication over negative and
// non-negative terms, including the full int32 span, whose gap needs 32 bits.
func TestBinaryRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 7))
	var records []dataset.Record
	for i := 0; i < 300; i++ {
		terms := make([]dataset.Term, 1+rng.IntN(5))
		for j := range terms {
			terms[j] = dataset.Term(rng.IntN(40) - 20)
		}
		records = append(records, dataset.NewRecord(terms...))
	}
	records = append(records, dataset.NewRecord(math.MinInt32, math.MaxInt32))
	d := dataset.FromRecords(records)
	a, err := Anonymize(d, Options{K: 3, M: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatal("binary round trip not identical")
	}
	// The format should beat JSON comfortably.
	var jsonBuf bytes.Buffer
	if err := WriteJSON(&jsonBuf, a); err != nil {
		t.Fatal(err)
	}
	if buf.Len()*4 > jsonBuf.Len() {
		t.Errorf("binary %d bytes vs JSON %d — expected at least 4× smaller", buf.Len(), jsonBuf.Len())
	}
}

// TestBinaryRoundTripEmptyChunkLists round-trips publications holding leaves
// without record chunks and, with safe repair, joints whose shared chunks
// were all stripped: the pipeline leaves those lists empty, not nil, and the
// decoded publication must equal the encoded one and marshal to the same
// JSON ("[]", not "null").
func TestBinaryRoundTripEmptyChunkLists(t *testing.T) {
	cfg := quest.DefaultConfig()
	cfg.NumTransactions, cfg.DomainSize, cfg.Seed = 3_000, 5_000, 1
	g, err := quest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Generate()
	for _, safe := range []bool{false, true} {
		a, err := Anonymize(d, Options{K: 5, M: 2, Seed: 1, SafeDisassociation: safe})
		if err != nil {
			t.Fatal(err)
		}
		var leaves, joints int
		var walk func(n *ClusterNode)
		walk = func(n *ClusterNode) {
			if n.Simple != nil {
				if len(n.Simple.RecordChunks) == 0 {
					leaves++
				}
				return
			}
			if len(n.SharedChunks) == 0 {
				joints++
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		for _, n := range a.Clusters {
			walk(n)
		}
		if leaves == 0 || (safe && joints == 0) {
			t.Fatalf("safe=%v: %d leaves without record chunks and %d joints without shared chunks; the fixture needs both kinds",
				safe, leaves, joints)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, a); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, back) {
			t.Errorf("safe=%v: binary round trip not identical", safe)
		}
		var want, got bytes.Buffer
		if err := WriteJSON(&want, a); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(&got, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("safe=%v: the decoded publication marshals to different JSON (%d leaves without record chunks, %d joints without shared chunks)",
				safe, leaves, joints)
		}
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":     "",
		"bad magic": "XXXX\x03\x02\x00",
		"truncated": "DSA1\x03",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadBinary(strings.NewReader(in)); err == nil {
				t.Error("garbage accepted")
			}
		})
	}
	// Implausible parameters.
	if _, err := ReadBinary(bytes.NewReader([]byte("DSA1\x01\x02\x00"))); err == nil {
		t.Error("k=1 accepted")
	}
	// Zero gap (non-increasing record) inside a leaf's term chunk.
	var buf bytes.Buffer
	buf.WriteString("DSA1")
	buf.Write([]byte{3, 2, 1}) // k=3 m=2 one cluster
	buf.Write([]byte{0})       // leaf
	buf.Write([]byte{5, 0})    // size 5, no chunks
	buf.Write([]byte{2, 1, 0}) // term chunk: len 2, first 1, gap 0 (invalid)
	if _, err := ReadBinary(&buf); err == nil {
		t.Error("zero-gap record accepted")
	}
}

// TestReadBinaryFileAllocatesOnce reads a forest file through ReadBinary and
// checks that it allocates what DecodeBinary allocates on the same bytes plus
// one buffer, sized from the file's length, and the FileInfo its Stat
// returns: the buffer never grows step by step.
func TestReadBinaryFileAllocatesOnce(t *testing.T) {
	qcfg := quest.DefaultConfig()
	qcfg.NumTransactions, qcfg.DomainSize, qcfg.Seed = 2_000, 1_000, 1
	g, err := quest.New(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Anonymize(g.Generate(), Options{K: 5, M: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, a); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	path := filepath.Join(t.TempDir(), "forest.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got *Anonymized
	read := func() {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if got, err = ReadBinary(f); err != nil {
			t.Fatal(err)
		}
	}
	if read(); !reflect.DeepEqual(got, a) {
		t.Fatal("the file decodes to another publication")
	}
	decode := func() {
		if _, err := DecodeBinary(data); err != nil {
			t.Fatal(err)
		}
	}
	readAllocs, decodeAllocs := testing.AllocsPerRun(5, read), testing.AllocsPerRun(5, decode)
	if readAllocs > decodeAllocs+2 {
		t.Errorf("ReadBinary on a %d-byte file: %.0f allocations, DecodeBinary %.0f; want at most 2 more", len(data), readAllocs, decodeAllocs)
	}
	// The one buffer is len(data)+1 bytes, which a large allocation rounds up
	// to whole 8 KiB pages; 1 KiB covers the FileInfo.
	readBytes, decodeBytes := allocatedBytes(read), allocatedBytes(decode)
	if limit := decodeBytes + uint64(len(data)) + 8<<10 + 1<<10; readBytes > limit {
		t.Errorf("ReadBinary on a %d-byte file: %d bytes, DecodeBinary %d; want at most %d", len(data), readBytes, decodeBytes, limit)
	}
	t.Logf("%d-byte file: ReadBinary %.0f allocations and %d bytes, DecodeBinary %.0f and %d", len(data), readAllocs, readBytes, decodeAllocs, decodeBytes)
}

// allocatedBytes returns the fewest heap bytes one call of f allocated over
// a few calls; the minimum drops what other goroutines allocate meanwhile.
func allocatedBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestDecodeBinaryAllocationBound decodes crafted inputs, each declaring far
// more than it holds or packing the most decoded bytes into the fewest input
// bytes, and checks DecodeBinary's stated bound: slabs of at most 30 bytes
// per input byte, which the allocator rounds up by at most a quarter (a
// large allocation to whole 8 KiB pages), plus 1 KiB for the result header
// and an error. An input the first pass rejects allocates only its error.
func TestDecodeBinaryAllocationBound(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	header := func(clusters uint64) []byte { return append([]byte(binaryMagic), uv(3, 2, clusters)...) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	leaf := uv(0, 1, 0, 0) // the smallest leaf: size 1, no chunks, empty term chunk

	// chain nests depth joints, each of a leaf and the next joint.
	chain := func(depth int) []byte {
		b := header(1)
		for range depth {
			b = append(b, uv(1, 2)...)
			b = append(b, leaf...)
		}
		b = append(b, leaf...)
		return append(b, bytes.Repeat(uv(0), depth)...) // no shared chunks
	}
	var real bytes.Buffer
	if err := WriteBinary(&real, fuzzSeedPublication(t)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   []byte
		ok   bool
	}{
		{"2^28 clusters, then the end", header(1 << 28), false},
		{"2^20 chunks, then the end", cat(header(1), uv(0, 5, 1<<20)), false},
		{"2^26 subrecords, then the end", cat(header(1), uv(0, 5, 1, 1, 7, 1<<26)), false},
		{"2^22-term record, then the end", cat(header(1), uv(0, 5, 0, 1<<22)), false},
		{"record cut short", cat(header(1), uv(0, 5, 0, 4, 1, 1)), false},
		{"joint tags nested 2000 deep, then the end", cat(header(1), bytes.Repeat(uv(1, 2), 2000)), false},
		{"joints nested past the depth bound", chain(maxNodeDepth + 1), false},
		{"joints nested 5000 deep", chain(5000), true},
		{"100,000 smallest leaves", cat(header(100_000), bytes.Repeat(leaf, 100_000)), true},
		{"800 smallest leaves", cat(header(800), bytes.Repeat(leaf, 800)), true},
		{"one chunk of 50,000 empty subrecords", cat(header(1), uv(0, 5, 1, 0, 50_000), make([]byte, 50_000), uv(0)), true},
		{"a publication", real.Bytes(), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			got := allocatedBytes(func() { _, err = DecodeBinary(c.in) })
			if (err == nil) != c.ok {
				t.Fatalf("accepted = %v, want %v (err %v)", err == nil, c.ok, err)
			}
			limit := uint64(30*len(c.in)*5/4 + 1024)
			if !c.ok {
				limit = 1024
			}
			if got > limit {
				t.Errorf("%d input bytes allocated %d bytes, over the bound of %d", len(c.in), got, limit)
			}
		})
	}
}

// TestDecodeBinaryListsOwnTheirCapacity appends to every list of a decoded
// publication — each record, subrecord list, chunk list and child list —
// and re-encodes it: the bytes must not change, so no append reached into
// a neighbouring list of the same slab.
func TestDecodeBinaryListsOwnTheirCapacity(t *testing.T) {
	enc := jointPublication(t)
	back, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	var lists, joints int
	grow := func(r dataset.Record) {
		_ = append(r, math.MaxInt32)
		lists++
	}
	growChunks := func(cs []Chunk) {
		for _, c := range cs {
			grow(c.Domain)
			for _, sr := range c.Subrecords {
				grow(sr)
			}
			_ = append(c.Subrecords, dataset.Record{math.MaxInt32})
		}
		_ = append(cs, Chunk{Domain: dataset.Record{math.MaxInt32}})
	}
	_ = append(back.Clusters, &ClusterNode{})
	for _, root := range back.Clusters {
		root.Walk(func(n *ClusterNode) {
			if n.IsLeaf() {
				growChunks(n.Simple.RecordChunks)
				grow(n.Simple.TermChunk)
				return
			}
			joints++
			_ = append(n.Children, &ClusterNode{})
			growChunks(n.SharedChunks)
		})
	}
	if joints == 0 {
		t.Fatal("the fixture has no joint clusters")
	}
	var again bytes.Buffer
	if err := WriteBinary(&again, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), enc) {
		t.Fatalf("appending to the decoded lists changed the publication (%d records grown)", lists)
	}
}

// jointPublication encodes a 3,000-record Quest publication whose forest
// has joint clusters, so every slab of the decoder is in use.
func jointPublication(t *testing.T) []byte {
	t.Helper()
	cfg := quest.DefaultConfig()
	cfg.NumTransactions, cfg.DomainSize, cfg.Seed = 3_000, 500, 1
	g, err := quest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Anonymize(g.Generate(), Options{K: 5, M: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := WriteBinary(&enc, a); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// TestDecodeBinaryPassTwoStaysInItsSlabs runs pass 2 over bytes that hold
// one element more, or one fewer, of each kind than pass 1 counted, as when
// a mapped file is written in place between the passes: pass 2 must return
// errPassesDisagree, never write past a slab or leave one partly filled.
func TestDecodeBinaryPassTwoStaysInItsSlabs(t *testing.T) {
	enc := jointPublication(t)
	d := binaryDecoder{buf: enc, off: len(binaryMagic)}
	for range 2 { // k, m
		if _, err := d.uvarint(); err != nil {
			t.Fatal(err)
		}
	}
	count, err := d.count(maxClusters, "cluster count")
	if err != nil {
		t.Fatal(err)
	}
	start := d.off
	for range count {
		if err := d.scanNode(0); err != nil {
			t.Fatal(err)
		}
	}
	end, counted := d.off, d.n
	kinds := map[string]func(*binaryDecoder) *uint64{
		"nodes":      func(d *binaryDecoder) *uint64 { return &d.n.nodes },
		"leaves":     func(d *binaryDecoder) *uint64 { return &d.n.leaves },
		"pointers":   func(d *binaryDecoder) *uint64 { return &d.n.ptrs },
		"chunks":     func(d *binaryDecoder) *uint64 { return &d.n.chunks },
		"subrecords": func(d *binaryDecoder) *uint64 { return &d.n.records },
		"terms":      func(d *binaryDecoder) *uint64 { return &d.n.terms },
	}
	for kind, field := range kinds {
		if *field(&d) == 0 {
			t.Fatalf("the fixture has no %s", kind)
		}
		for _, delta := range []int{-1, 1} {
			p := binaryDecoder{buf: enc, off: start, n: counted}
			*field(&p) += uint64(delta)
			if _, err := p.fill(count, end); !errors.Is(err, errPassesDisagree) {
				t.Errorf("%s counted %+d: pass 2 returned %v, want errPassesDisagree", kind, delta, err)
			}
		}
	}
	p := binaryDecoder{buf: enc, off: start, n: counted}
	if _, err := p.fill(count, end); err != nil {
		t.Fatalf("pass 2 on the counted bytes: %v", err)
	}
}
