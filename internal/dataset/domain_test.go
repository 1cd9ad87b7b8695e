package dataset

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestDenseDomainRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	records := make([]Record, 50)
	for i := range records {
		terms := make([]Term, 1+rng.IntN(6))
		for j := range terms {
			terms[j] = Term(rng.IntN(1000) * 7) // sparse global ids
		}
		records[i] = NewRecord(terms...)
	}
	dd := NewDenseDomain(records)
	dense := dd.RemapAll(records)
	if len(dense) != len(records) {
		t.Fatalf("remap changed record count: %d != %d", len(dense), len(records))
	}
	for i, r := range dense {
		if !r.IsNormalized() {
			t.Fatalf("record %d not normalized after remap: %v", i, r)
		}
		if len(r) != len(records[i]) {
			t.Fatalf("record %d changed length", i)
		}
		restored := r.Clone()
		dd.RestoreRecord(restored)
		if !restored.Equal(records[i]) {
			t.Fatalf("record %d round trip: got %v want %v", i, restored, records[i])
		}
	}
}

func TestDenseDomainIDsAscend(t *testing.T) {
	records := []Record{NewRecord(100, 7, 42), NewRecord(7, 9)}
	dd := NewDenseDomain(records)
	if dd.Len() != 4 {
		t.Fatalf("domain size = %d, want 4", dd.Len())
	}
	prev := Term(-1)
	for id := 0; id < dd.Len(); id++ {
		g := dd.TermOf(Term(id))
		if g <= prev {
			t.Fatalf("TermOf not ascending at id %d", id)
		}
		prev = g
		back, ok := dd.ID(g)
		if !ok || back != int32(id) {
			t.Fatalf("ID(TermOf(%d)) = %d, %v", id, back, ok)
		}
	}
	if _, ok := dd.ID(8); ok {
		t.Fatal("ID reported a term outside the domain")
	}
}

// ID must agree with a binary search over the domain for dense, sparse and
// negative term ids, including both ends of the int32 range.
func TestDenseDomainIDMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 52))
	domains := [][]Term{
		nil,
		{7},
		{0, 1, 2, 3, 5, 8, 9, 10},
		{math.MinInt32, -5, 0, 3, math.MaxInt32},
	}
	sparse := make([]Term, 300)
	for i := range sparse {
		sparse[i] = Term(rng.Int32N(1<<30) - 1<<29)
	}
	domains = append(domains, NewRecord(sparse...), NewRecord(append(sparse, math.MaxInt32)...))
	for _, d := range domains {
		checkIDs(t, d)
	}
}

// checkIDs probes every term of the normalized domain d, its neighbours and
// the int32 ends, and requires DenseDomain.ID to answer what a binary search
// over d answers.
func checkIDs(t *testing.T, d []Term) {
	t.Helper()
	dd := NewDenseDomainFromTerms(d)
	var probes []Term
	for _, x := range d {
		probes = append(probes, x, x-1, x+1)
	}
	probes = append(probes, math.MinInt32, math.MaxInt32, 0)
	for _, p := range probes {
		want, wantOK := slices.BinarySearch(d, p)
		got, ok := dd.ID(p)
		if ok != wantOK || (ok && int(got) != want) {
			t.Fatalf("domain %v: ID(%d) = %d, %v; want %d, %v", d, p, got, ok, want, wantOK)
		}
	}
}

func TestDenseDomainRemapAllPanicsOutsideDomain(t *testing.T) {
	dd := NewDenseDomain([]Record{NewRecord(2, 4, 6)})
	defer func() {
		if recover() == nil {
			t.Fatal("RemapAll accepted a term outside the domain")
		}
	}()
	dd.RemapAll([]Record{NewRecord(2, 5)})
}
