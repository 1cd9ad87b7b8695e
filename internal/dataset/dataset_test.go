package dataset

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewRecord(t *testing.T) {
	tests := []struct {
		name string
		in   []Term
		want Record
	}{
		{"empty", nil, Record{}},
		{"single", []Term{5}, Record{5}},
		{"sorted input", []Term{1, 2, 3}, Record{1, 2, 3}},
		{"unsorted input", []Term{3, 1, 2}, Record{1, 2, 3}},
		{"duplicates", []Term{2, 1, 2, 1, 2}, Record{1, 2}},
		{"all same", []Term{7, 7, 7}, Record{7}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := NewRecord(tc.in...)
			if !got.Equal(tc.want) {
				t.Errorf("NewRecord(%v) = %v, want %v", tc.in, got, tc.want)
			}
			if !got.IsNormalized() {
				t.Errorf("NewRecord(%v) = %v is not normalized", tc.in, got)
			}
		})
	}
}

func TestNewRecordDoesNotMutateInput(t *testing.T) {
	in := []Term{3, 1, 2}
	NewRecord(in...)
	if !reflect.DeepEqual(in, []Term{3, 1, 2}) {
		t.Errorf("input mutated: %v", in)
	}
}

func TestRecordContains(t *testing.T) {
	r := NewRecord(2, 4, 6, 8)
	for _, tc := range []struct {
		t    Term
		want bool
	}{{2, true}, {8, true}, {6, true}, {1, false}, {5, false}, {9, false}} {
		if got := r.Contains(tc.t); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestRecordContainsAll(t *testing.T) {
	r := NewRecord(1, 3, 5, 7, 9)
	tests := []struct {
		sub  Record
		want bool
	}{
		{NewRecord(), true},
		{NewRecord(1), true},
		{NewRecord(9), true},
		{NewRecord(3, 7), true},
		{NewRecord(1, 3, 5, 7, 9), true},
		{NewRecord(2), false},
		{NewRecord(1, 2), false},
		{NewRecord(9, 10), false},
		{NewRecord(0, 1), false},
	}
	for _, tc := range tests {
		if got := r.ContainsAll(tc.sub); got != tc.want {
			t.Errorf("ContainsAll(%v) = %v, want %v", tc.sub, got, tc.want)
		}
	}
}

func TestRecordSetOps(t *testing.T) {
	a := NewRecord(1, 2, 3, 5)
	b := NewRecord(2, 3, 4)
	if got, want := a.Intersect(b), NewRecord(2, 3); !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got, want := a.Subtract(b), NewRecord(1, 5); !got.Equal(want) {
		t.Errorf("Subtract = %v, want %v", got, want)
	}
	if got, want := a.Union(b), NewRecord(1, 2, 3, 4, 5); !got.Equal(want) {
		t.Errorf("Union = %v, want %v", got, want)
	}
	empty := NewRecord()
	if got := a.Intersect(empty); len(got) != 0 {
		t.Errorf("Intersect with empty = %v, want empty", got)
	}
	if got := a.Subtract(empty); !got.Equal(a) {
		t.Errorf("Subtract empty = %v, want %v", got, a)
	}
	if got := empty.Union(a); !got.Equal(a) {
		t.Errorf("empty.Union(a) = %v, want %v", got, a)
	}
}

func TestRecordKeyUniqueness(t *testing.T) {
	a := NewRecord(1, 23)
	b := NewRecord(12, 3)
	if a.Key() == b.Key() {
		t.Errorf("keys collide: %q vs %q", a.Key(), b.Key())
	}
	if a.Key() != NewRecord(23, 1).Key() {
		t.Error("equal records must have equal keys")
	}
}

// Key's text is pinned: delta removals match records by it.
func TestRecordKeyFormat(t *testing.T) {
	tests := []struct {
		r    Record
		want string
	}{
		{Record{}, ""},
		{Record{5}, "5"},
		{Record{-3, 0, 7}, "-3,0,7"},
		{Record{math.MinInt32, math.MaxInt32}, "-2147483648,2147483647"},
	}
	for _, tc := range tests {
		if got := tc.r.Key(); got != tc.want {
			t.Errorf("%v.Key() = %q, want %q", tc.r, got, tc.want)
		}
	}
}

func TestRecordString(t *testing.T) {
	if got, want := NewRecord(3, 1).String(), "{1, 3}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got, want := NewRecord().String(), "{}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestDatasetBasics(t *testing.T) {
	d := New(4)
	d.Add(Record{3, 1, 3})
	d.Add(Record{2})
	d.Add(Record{1, 2})
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	if !d.Records[0].Equal(NewRecord(1, 3)) {
		t.Errorf("Add did not normalize: %v", d.Records[0])
	}
	if got, want := d.Domain(), []Term{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("Domain = %v, want %v", got, want)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDatasetSupports(t *testing.T) {
	d := FromRecords([]Record{
		NewRecord(1, 2),
		NewRecord(1, 3),
		NewRecord(1, 2, 3),
		NewRecord(4),
	})
	want := map[Term]int{1: 3, 2: 2, 3: 2, 4: 1}
	if got := d.Supports(); !reflect.DeepEqual(got, want) {
		t.Errorf("Supports = %v, want %v", got, want)
	}
	if got := d.Support(1); got != 3 {
		t.Errorf("Support(1) = %d, want 3", got)
	}
	if got := d.Support(99); got != 0 {
		t.Errorf("Support(99) = %d, want 0", got)
	}
	if got := d.SupportOf(NewRecord(1, 2)); got != 2 {
		t.Errorf("SupportOf({1,2}) = %d, want 2", got)
	}
	if got := d.SupportOf(NewRecord(2, 4)); got != 0 {
		t.Errorf("SupportOf({2,4}) = %d, want 0", got)
	}
	if got := d.SupportOf(NewRecord()); got != 4 {
		t.Errorf("SupportOf({}) = %d, want 4 (every record contains the empty set)", got)
	}
}

func TestTermsByFrequency(t *testing.T) {
	d := FromRecords([]Record{
		NewRecord(1, 2, 3),
		NewRecord(1, 2),
		NewRecord(1),
		NewRecord(5),
	})
	got := d.TermsByFrequency()
	want := []Term{1, 2, 3, 5} // support 3, 2, 1, 1 — tie broken by ID
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TermsByFrequency = %v, want %v", got, want)
	}
}

func TestComputeStats(t *testing.T) {
	d := FromRecords([]Record{
		NewRecord(1, 2, 3),
		NewRecord(1, 2),
		NewRecord(1, 2),
		NewRecord(4),
	})
	st := d.ComputeStats()
	if st.NumRecords != 4 || st.DomainSize != 4 || st.MaxRecord != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.TotalTerms != 8 || st.AvgRecord != 2.0 {
		t.Errorf("stats totals = %+v", st)
	}
	if st.DistinctRec != 3 {
		t.Errorf("DistinctRec = %d, want 3", st.DistinctRec)
	}
	if st.EmptyCount != 0 {
		t.Errorf("EmptyCount = %d, want 0", st.EmptyCount)
	}
}

func TestValidateRejectsBadRecords(t *testing.T) {
	d := FromRecords([]Record{NewRecord(1), {}})
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted an empty record")
	}
	d = FromRecords([]Record{{3, 1}})
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted an unsorted record")
	}
	d = FromRecords([]Record{{1, 1}})
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted a duplicate term")
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := FromRecords([]Record{NewRecord(1, 2)})
	c := d.Clone()
	c.Records[0][0] = 99
	if d.Records[0][0] == 99 {
		t.Error("Clone shares record storage with the original")
	}
}

// Property: for random term multisets, NewRecord output is always normalized
// and contains exactly the distinct input terms.
func TestNewRecordProperties(t *testing.T) {
	f := func(raw []int16) bool {
		terms := make([]Term, len(raw))
		want := make(map[Term]bool)
		for i, v := range raw {
			terms[i] = Term(v)
			want[Term(v)] = true
		}
		r := NewRecord(terms...)
		if !r.IsNormalized() || len(r) != len(want) {
			return false
		}
		for _, tm := range r {
			if !want[tm] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Intersect/Subtract/Union agree with naive map-based definitions.
func TestSetOpProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	randomRecord := func() Record {
		n := rng.IntN(12)
		terms := make([]Term, n)
		for i := range terms {
			terms[i] = Term(rng.IntN(20))
		}
		return NewRecord(terms...)
	}
	for trial := 0; trial < 300; trial++ {
		a, b := randomRecord(), randomRecord()
		inA := make(map[Term]bool)
		for _, tm := range a {
			inA[tm] = true
		}
		inB := make(map[Term]bool)
		for _, tm := range b {
			inB[tm] = true
		}
		for _, tm := range a.Intersect(b) {
			if !inA[tm] || !inB[tm] {
				t.Fatalf("Intersect(%v,%v) contains %d", a, b, tm)
			}
		}
		for _, tm := range a.Subtract(b) {
			if !inA[tm] || inB[tm] {
				t.Fatalf("Subtract(%v,%v) contains %d", a, b, tm)
			}
		}
		u := a.Union(b)
		if len(u) != len(inA)+len(b)-len(a.Intersect(b)) {
			// |A ∪ B| = |A| + |B| − |A ∩ B|
			t.Fatalf("Union(%v,%v) = %v has wrong size", a, b, u)
		}
		if !u.IsNormalized() {
			t.Fatalf("Union(%v,%v) = %v not normalized", a, b, u)
		}
	}
}
