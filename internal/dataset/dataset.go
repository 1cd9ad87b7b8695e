// Package dataset provides the transactional data model used throughout the
// disassociation library: records are sets of terms drawn from a huge domain
// (web search queries, purchased products, clicked URLs), and a dataset is an
// ordered collection of such records.
//
// The representation follows the paper's data assumptions (Section 2 of
// "Privacy Preservation by Disassociation", PVLDB 2012): records have set
// semantics (no duplicate terms inside a record) while datasets have bag
// semantics (duplicate records are allowed).
package dataset

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Term identifies a term (item) of the domain T. Terms are small integers so
// that supports, projections and combination checks stay allocation-friendly;
// a Dictionary maps them back to their external string form.
type Term int32

// Record is a set of terms: sorted ascending with no duplicates. The zero
// value is the empty record. Records must be normalized (see NewRecord) before
// being handed to any algorithm in this module.
type Record []Term

// NewRecord builds a normalized record from the given terms: the result is
// sorted and duplicate-free. The input slice is not modified.
func NewRecord(terms ...Term) Record {
	r := make(Record, len(terms))
	copy(r, terms)
	slices.Sort(r)
	return slices.Compact(r)
}

// Normalize sorts the record and removes duplicate terms in place, returning
// the normalized record. Use it after bulk-loading raw term slices.
func (r Record) Normalize() Record {
	slices.Sort(r)
	return slices.Compact(r)
}

// IsNormalized reports whether the record is sorted ascending with no
// duplicates.
func (r Record) IsNormalized() bool {
	for i := 1; i < len(r); i++ {
		if r[i] <= r[i-1] {
			return false
		}
	}
	return true
}

// Contains reports whether term t appears in the record. The record must be
// normalized; lookup is a binary search.
func (r Record) Contains(t Term) bool {
	_, ok := slices.BinarySearch(r, t)
	return ok
}

// ContainsAll reports whether every term of sub appears in r. Both records
// must be normalized. It runs in O(len(r)+len(sub)).
func (r Record) ContainsAll(sub Record) bool {
	i := 0
	for _, t := range sub {
		for i < len(r) && r[i] < t {
			i++
		}
		if i == len(r) || r[i] != t {
			return false
		}
		i++
	}
	return true
}

// Intersect returns the normalized intersection of r and other.
func (r Record) Intersect(other Record) Record {
	out := make(Record, 0, min(len(r), len(other)))
	i, j := 0, 0
	for i < len(r) && j < len(other) {
		switch {
		case r[i] < other[j]:
			i++
		case r[i] > other[j]:
			j++
		default:
			out = append(out, r[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// Subtract returns the normalized difference r − other.
func (r Record) Subtract(other Record) Record {
	out := make(Record, 0, len(r))
	j := 0
	for _, t := range r {
		for j < len(other) && other[j] < t {
			j++
		}
		if j < len(other) && other[j] == t {
			continue
		}
		out = append(out, t)
	}
	return out
}

// Union returns the normalized union of r and other.
func (r Record) Union(other Record) Record {
	out := make(Record, 0, len(r)+len(other))
	i, j := 0, 0
	for i < len(r) && j < len(other) {
		switch {
		case r[i] < other[j]:
			out = append(out, r[i])
			i++
		case r[i] > other[j]:
			out = append(out, other[j])
			j++
		default:
			out = append(out, r[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, r[i:]...)
	out = append(out, other[j:]...)
	return out
}

// Equal reports whether two normalized records contain exactly the same terms.
func (r Record) Equal(other Record) bool {
	return slices.Equal(r, other)
}

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	return slices.Clone(r)
}

// Key returns a compact string form of the record usable as a map key. Two
// normalized records have equal keys iff they are Equal.
func (r Record) Key() string {
	b := make([]byte, 0, 8*len(r))
	for i, t := range r {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(t), 10)
	}
	return string(b)
}

// String renders the record as a braced term list, e.g. {3, 17, 42}.
func (r Record) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", t)
	}
	b.WriteByte('}')
	return b.String()
}

// Dataset is a bag of records. Records keeps insertion order; algorithms that
// need a stable order rely on it.
type Dataset struct {
	Records []Record
}

// New returns an empty dataset with capacity for n records.
func New(n int) *Dataset {
	return &Dataset{Records: make([]Record, 0, n)}
}

// FromRecords wraps the given records in a Dataset without copying them.
// Records must already be normalized.
func FromRecords(records []Record) *Dataset {
	return &Dataset{Records: records}
}

// Len returns the number of records |D|.
func (d *Dataset) Len() int { return len(d.Records) }

// Add appends a record to the dataset. The record is normalized in place.
func (d *Dataset) Add(r Record) {
	d.Records = append(d.Records, r.Normalize())
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := New(d.Len())
	for _, r := range d.Records {
		out.Records = append(out.Records, r.Clone())
	}
	return out
}

// Domain returns the sorted set of distinct terms appearing in the dataset.
func (d *Dataset) Domain() []Term {
	seen := make(map[Term]struct{})
	for _, r := range d.Records {
		for _, t := range r {
			seen[t] = struct{}{}
		}
	}
	out := make([]Term, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// Supports returns the support s(t) — the number of records containing t —
// for every term in the dataset.
func (d *Dataset) Supports() map[Term]int {
	s := make(map[Term]int)
	for _, r := range d.Records {
		for _, t := range r {
			s[t]++
		}
	}
	return s
}

// Support returns the support of a single term.
func (d *Dataset) Support(t Term) int {
	n := 0
	for _, r := range d.Records {
		if r.Contains(t) {
			n++
		}
	}
	return n
}

// SupportOf returns the number of records containing every term of the given
// normalized itemset.
func (d *Dataset) SupportOf(itemset Record) int {
	n := 0
	for _, r := range d.Records {
		if r.ContainsAll(itemset) {
			n++
		}
	}
	return n
}

// TermsByFrequency returns the dataset's terms ordered by descending support;
// ties broken by ascending term ID so the order is deterministic.
func (d *Dataset) TermsByFrequency() []Term {
	s := d.Supports()
	terms := make([]Term, 0, len(s))
	for t := range s {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool {
		if s[terms[i]] != s[terms[j]] {
			return s[terms[i]] > s[terms[j]]
		}
		return terms[i] < terms[j]
	})
	return terms
}

// Stats summarizes a dataset the way the paper's Figure 6 does.
type Stats struct {
	NumRecords  int     // |D|
	DomainSize  int     // |T|
	MaxRecord   int     // max record size
	AvgRecord   float64 // avg record size
	TotalTerms  int     // Σ |r| over all records
	EmptyCount  int     // number of empty records (0 for valid inputs)
	DistinctRec int     // number of distinct records
}

// ComputeStats scans the dataset once and returns its summary statistics.
func (d *Dataset) ComputeStats() Stats {
	st := Stats{NumRecords: d.Len()}
	seen := make(map[Term]struct{})
	distinct := make(map[string]struct{})
	for _, r := range d.Records {
		if len(r) == 0 {
			st.EmptyCount++
		}
		if len(r) > st.MaxRecord {
			st.MaxRecord = len(r)
		}
		st.TotalTerms += len(r)
		for _, t := range r {
			seen[t] = struct{}{}
		}
		distinct[r.Key()] = struct{}{}
	}
	st.DomainSize = len(seen)
	st.DistinctRec = len(distinct)
	if st.NumRecords > 0 {
		st.AvgRecord = float64(st.TotalTerms) / float64(st.NumRecords)
	}
	return st
}

// Validate checks structural invariants: every record normalized and
// non-empty. It returns the first violation found.
func (d *Dataset) Validate() error {
	for i, r := range d.Records {
		if len(r) == 0 {
			return fmt.Errorf("dataset: record %d is empty", i)
		}
		if !r.IsNormalized() {
			return fmt.Errorf("dataset: record %d is not normalized: %v", i, r)
		}
	}
	return nil
}
