package dataset

import (
	"math"
	"slices"
)

// DenseDomain is a monotone bijection between a dataset's global terms and
// the dense ids 0..Len()-1, assigned in ascending term order. Remapping a
// dataset through it preserves every ordering the anonymization pipeline
// relies on (term-ascending ties, support comparisons, lexicographic record
// comparisons), so a pipeline run over the dense ids followed by RestoreRecord
// on the published output is byte-identical to a run over the original terms —
// while every per-term table inside the pipeline becomes a flat slice indexed
// by the id instead of a map keyed by the term.
//
// A lookup does not search the whole domain. Terms are bucketed by their
// offset from the smallest one, with at most presenceSpanRatio buckets per
// term, and a lookup searches only its bucket. Term ids are dense in
// practice: a domain whose ids span at most presenceSpanRatio times its size
// gets one bucket per id, so a lookup takes one step; sparse ids degrade to a
// whole-domain search.
type DenseDomain struct {
	terms []Term  // dense id -> global term, ascending
	lo    int64   // the smallest term
	shift uint    // bucket of t: (t - lo) >> shift
	first []int32 // bucket -> its first id; the last entry is len(terms)
}

// NewDenseDomain collects the distinct terms of the records into a domain.
func NewDenseDomain(records []Record) *DenseDomain {
	return newDenseDomain(DistinctTerms(records))
}

// presenceSpanRatio bounds the presence table of DistinctTerms: a table over
// the terms' span is used while the span is at most this many times the
// number of term occurrences, and the occurrences are sorted past it.
const presenceSpanRatio = 4

// DistinctTerms returns the distinct terms of the lists in ascending order
// (empty, not nil, when there are none). Term ids are dense in practice, so
// it marks each occurrence in a presence table over the span of the terms
// and reads the table out in order: linear in the occurrences plus the
// span. Sparse ids, whose span exceeds presenceSpanRatio times the
// occurrence count, are collected and sorted instead.
func DistinctTerms[L ~[]Term](lists []L) []Term {
	total := 0
	lo, hi := Term(math.MaxInt32), Term(math.MinInt32)
	for _, l := range lists {
		total += len(l)
		for _, t := range l {
			lo, hi = min(lo, t), max(hi, t)
		}
	}
	if total == 0 {
		return []Term{}
	}
	if !presenceFits(lo, hi, total) {
		all := make([]Term, 0, total)
		for _, l := range lists {
			all = append(all, l...)
		}
		slices.Sort(all)
		// A copy, so that a domain does not keep every occurrence alive.
		return slices.Clone(slices.Compact(all))
	}
	seen := make([]bool, int64(hi)-int64(lo)+1)
	distinct := 0
	for _, l := range lists {
		for _, t := range l {
			if off := int64(t) - int64(lo); !seen[off] {
				seen[off] = true
				distinct++
			}
		}
	}
	out := make([]Term, 0, distinct)
	for off, ok := range seen {
		if ok {
			out = append(out, Term(int64(lo)+int64(off)))
		}
	}
	return out
}

// presenceFits reports whether DistinctTerms marks a presence table for
// total term occurrences spanning lo..hi, rather than sorting them.
func presenceFits(lo, hi Term, total int) bool {
	return int64(hi)-int64(lo)+1 <= presenceSpanRatio*int64(total)
}

// NewDenseDomainFromTerms wraps an already sorted, duplicate-free term list
// (e.g. the keys of a streamed support count, or a term slab mapped from a
// snapshot file) into a domain without copying it. The domain reads the
// slice and never writes it.
func NewDenseDomainFromTerms(terms []Term) *DenseDomain {
	if !Record(terms).IsNormalized() {
		panic("dataset: NewDenseDomainFromTerms needs sorted, duplicate-free terms")
	}
	return newDenseDomain(terms)
}

// newDenseDomain builds the bucket table over sorted, duplicate-free terms:
// the narrowest buckets that keep their number within presenceSpanRatio
// times the term count, the bound DistinctTerms puts on its presence table.
func newDenseDomain(terms []Term) *DenseDomain {
	dd := &DenseDomain{terms: terms}
	if len(terms) == 0 {
		return dd
	}
	dd.lo = int64(terms[0])
	span := int64(terms[len(terms)-1]) - dd.lo
	for span>>dd.shift >= presenceSpanRatio*int64(len(terms)) {
		dd.shift++
	}
	dd.first = make([]int32, span>>dd.shift+2)
	id := 0
	for b := range dd.first {
		for id < len(terms) && (int64(terms[id])-dd.lo)>>dd.shift < int64(b) {
			id++
		}
		dd.first[b] = int32(id)
	}
	return dd
}

// Len returns the domain size |T|.
func (dd *DenseDomain) Len() int { return len(dd.terms) }

// Terms returns the domain's terms in id order. Callers must not modify the
// returned slice.
func (dd *DenseDomain) Terms() []Term { return dd.terms }

// ID returns the dense id of a global term and whether the term is in the
// domain.
func (dd *DenseDomain) ID(t Term) (int32, bool) {
	off := int64(t) - dd.lo
	if off < 0 || off>>dd.shift >= int64(len(dd.first)-1) {
		return 0, false
	}
	b := off >> dd.shift
	lo, hi := dd.first[b], dd.first[b+1]
	if dd.shift == 0 {
		// A one-id bucket holds t exactly when it is not empty.
		if lo < hi {
			return lo, true
		}
		return 0, false
	}
	for lo < hi {
		h := int32(uint32(lo+hi) >> 1)
		if dd.terms[h] < t {
			lo = h + 1
		} else {
			hi = h
		}
	}
	if lo < dd.first[b+1] && dd.terms[lo] == t {
		return lo, true
	}
	return 0, false
}

// TermOf returns the global term behind a dense id.
func (dd *DenseDomain) TermOf(id Term) Term { return dd.terms[id] }

// RemapAll returns the records with every term replaced by its dense id,
// backed by one flat allocation. Every input term must be in the domain.
// Because ids ascend with terms, the outputs are normalized records.
func (dd *DenseDomain) RemapAll(records []Record) []Record {
	total := 0
	for _, r := range records {
		total += len(r)
	}
	flat := make([]Term, 0, total)
	out := make([]Record, len(records))
	for i, r := range records {
		start := len(flat)
		for _, t := range r {
			id, ok := dd.ID(t)
			if !ok {
				panic("dataset: RemapAll term outside domain")
			}
			flat = append(flat, Term(id))
		}
		out[i] = Record(flat[start:len(flat):len(flat)])
	}
	return out
}

// RestoreRecord rewrites a dense-id record back to global terms in place.
// Monotonicity keeps the record normalized.
func (dd *DenseDomain) RestoreRecord(r Record) {
	for i, id := range r {
		r[i] = dd.terms[id]
	}
}
