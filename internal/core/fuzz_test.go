package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"disasso/internal/dataset"
)

// fuzzSeedPublication builds a small real publication for the fuzz corpora.
func fuzzSeedPublication(tb testing.TB) *Anonymized {
	tb.Helper()
	d := genDataset(2, 6, 60)
	a, err := Anonymize(d, Options{K: 3, M: 2, MaxClusterSize: 8, Seed: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// FuzzReadBinary feeds arbitrary bytes to the binary decoder: it must never
// panic, and any input it accepts must re-encode canonically (encode →
// decode → encode is a fixpoint).
func FuzzReadBinary(f *testing.F) {
	a := fuzzSeedPublication(f)
	var seed bytes.Buffer
	if err := WriteBinary(&seed, a); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("DSA1"))
	f.Add([]byte("DSA1\x03\x02\x00"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01, 0x02}, 2000)) // deeply nested joint tags
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc1 bytes.Buffer
		if err := WriteBinary(&enc1, decoded); err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		again, err := ReadBinary(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded publication rejected: %v", err)
		}
		var enc2 bytes.Buffer
		if err := WriteBinary(&enc2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatal("binary round trip is not a fixpoint")
		}
	})
}

// FuzzBinaryTermRoundTrip fuzzes the encode direction, which FuzzReadBinary
// cannot reach with negative terms (it decodes first, and the decoder only
// ever yields what the encoder can write): the input's little-endian int32s
// become the one record of a one-leaf publication, which WriteBinary →
// ReadBinary must return unchanged.
func FuzzBinaryTermRoundTrip(f *testing.F) {
	le := func(terms ...int32) []byte {
		var b []byte
		for _, t := range terms {
			b = binary.LittleEndian.AppendUint32(b, uint32(t))
		}
		return b
	}
	f.Add(le(-5))
	f.Add(le(-5, 3, 9))
	f.Add(le(math.MinInt32, math.MaxInt32))
	f.Add(le(0, 1, 2))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		terms := make([]dataset.Term, len(data)/4)
		for i := range terms {
			terms[i] = dataset.Term(int32(binary.LittleEndian.Uint32(data[4*i:])))
		}
		r := dataset.NewRecord(terms...)
		a := &Anonymized{K: 2, M: 1, Clusters: []*ClusterNode{{Simple: &Cluster{
			Size:         1,
			RecordChunks: []Chunk{{Domain: r, Subrecords: []dataset.Record{r}}},
			TermChunk:    r,
		}}}}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, a); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("record %v: %v", r, err)
		}
		if !reflect.DeepEqual(a, back) {
			t.Fatalf("record %v: round trip returned %v", r, back.Clusters[0].Simple)
		}
	})
}

// FuzzReadJSON is the same contract for the JSON decoder.
func FuzzReadJSON(f *testing.F) {
	a := fuzzSeedPublication(f)
	var seed bytes.Buffer
	if err := WriteJSON(&seed, a); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"K":2,"M":1,"Clusters":null}`))
	f.Add([]byte(`{"K":2,"M":1,"Clusters":[{"Simple":null,"Children":null,"SharedChunks":null}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc1 bytes.Buffer
		if err := WriteJSON(&enc1, decoded); err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		again, err := ReadJSON(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded publication rejected: %v", err)
		}
		var enc2 bytes.Buffer
		if err := WriteJSON(&enc2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatal("JSON round trip is not a fixpoint")
		}
	})
}
