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
	// Ids spanning exactly presenceSpanRatio times the domain size get one
	// bucket per id; one id more doubles the bucket width.
	for _, c := range []struct {
		terms []Term
		span  int
		shift uint
	}{{spanTight, presenceSpanRatio * 8, 0}, {spanWide, presenceSpanRatio*8 + 1, 1}} {
		if span := int(c.terms[len(c.terms)-1]-c.terms[0]) + 1; len(c.terms) != 8 || span != c.span {
			t.Fatalf("domain %v: %d terms spanning %d ids, want 8 spanning %d", c.terms, len(c.terms), span, c.span)
		}
		if dd := NewDenseDomainFromTerms(c.terms); dd.shift != c.shift {
			t.Fatalf("domain %v: bucket shift %d, want %d", c.terms, dd.shift, c.shift)
		}
		checkIDs(t, c.terms)
	}
}

// Eight terms spanning 32 ids, presenceSpanRatio times eight, and the same
// terms with the last one moved out by one id.
var (
	spanTight = []Term{-10, -6, 0, 3, 7, 12, 17, 21}
	spanWide  = []Term{-10, -6, 0, 3, 7, 12, 17, 22}
)

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

// TestDistinctTermsMatchesSort: DistinctTerms must return what sorting and
// compacting every occurrence returns, on dense ids, sparse ids beyond the
// presence table's bound, negative ids and ids at both int32 ends, with
// inputs on both sides of that bound and on it.
func TestDistinctTermsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	random := func(n int, lo, span int64) []Record {
		records := make([]Record, n)
		for i := range records {
			terms := make([]Term, 1+rng.IntN(8))
			for j := range terms {
				terms[j] = Term(lo + rng.Int64N(span))
			}
			records[i] = NewRecord(terms...)
		}
		return records
	}
	// run is a list of consecutive ids from lo, in records of one term.
	run := func(lo Term, n int) []Record {
		records := make([]Record, n)
		for i := range records {
			records[i] = Record{lo + Term(i)}
		}
		return records
	}
	cases := []struct {
		name    string
		records []Record
	}{
		{"empty", nil},
		{"empty records", []Record{{}, {}}},
		{"dense", random(200, 0, 300)},
		{"dense negative", random(200, -150, 300)},
		{"sparse", random(50, -1<<29, 1<<30)},
		{"span under the bound", []Record{{0}, {0}, {7}}}, // 8 ids, 3 occurrences
		{"span at the bound", []Record{{0, 7}}},           // 8 ids, 2 occurrences
		{"span past the bound", []Record{{0}, {8}}},       // 9 ids, 2 occurrences
		{"int32 low end", append(run(math.MinInt32, 5), Record{math.MinInt32 + 2})},
		{"int32 high end", run(math.MaxInt32-4, 5)},
		{"both int32 ends", []Record{{math.MinInt32, -1, 0, math.MaxInt32}}},
	}
	var table, sorted int
	for _, tc := range cases {
		var all []Term
		for _, r := range tc.records {
			all = append(all, r...)
		}
		want := slices.Compact(slices.Sorted(slices.Values(all)))
		got := DistinctTerms(tc.records)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: DistinctTerms = %v, want %v", tc.name, got, want)
		}
		if len(all) > 0 {
			if presenceFits(slices.Min(all), slices.Max(all), len(all)) {
				table++
			} else {
				sorted++
			}
		}
		if dd := NewDenseDomain(tc.records); !slices.Equal(dd.Terms(), want) {
			t.Fatalf("%s: NewDenseDomain terms = %v, want %v", tc.name, dd.Terms(), want)
		}
	}
	if table == 0 || sorted == 0 {
		t.Fatalf("%d inputs marked a presence table and %d sorted; the cases need both", table, sorted)
	}
	if !presenceFits(0, 7, 2) || presenceFits(0, 8, 2) {
		t.Fatal("the presence bound is not a span of 4 ids per occurrence")
	}
}
