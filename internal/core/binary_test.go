package core

import (
	"bytes"
	"math"
	"math/rand/v2"
	"reflect"
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
