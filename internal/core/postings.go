package core

import "disasso/internal/dataset"

// Splits partition through term postings. HORPART (horpart.go) and the
// in-memory shard planner (republish.go) both split a node by containment of
// one term, keeping the records' relative order on both sides. Instead of
// searching the term in every record of the node, a split stamps the term's
// posting list (built once per run over the whole record list) into a mark
// array and walks the node once, reading one mark per record. A posting list
// also holds the records outside the node, so past markedSplitRatio postings
// per node record the stamping costs more than it saves, and the split
// searches each record instead.

// markedSplitRatio is the longest posting list, in node records, that a
// split stamps; a longer one falls back to the per-record search.
const markedSplitRatio = 2

// postings is a term→record-index table in CSR form: the record indexes
// holding term t are recs[off[t]:off[t+1]], ascending.
type postings struct {
	off  []int // len nTerms+1
	recs []int32
}

// newPostings indexes records whose terms are dense ids below nTerms.
func newPostings(records []dataset.Record, nTerms int) postings {
	off := make([]int, nTerms+1)
	for _, r := range records {
		for _, t := range r {
			off[t+1]++
		}
	}
	for t := 1; t <= nTerms; t++ {
		off[t] += off[t-1]
	}
	recs := make([]int32, off[nTerms])
	// Fill with off[t] as term t's cursor, which leaves it at t's end (the
	// next term's start); shifting the table up one restores the starts.
	for ri, r := range records {
		for _, t := range r {
			recs[off[t]] = int32(ri)
			off[t]++
		}
	}
	copy(off[1:], off[:nTerms])
	off[0] = 0
	return postings{off: off, recs: recs}
}

// of returns the indexes of the records holding term t.
func (p postings) of(t int32) []int32 { return p.recs[p.off[t]:p.off[t+1]] }

// partition appends the records of node (record indexes) that hold term t to
// with and the others to without, both in node order: through t's posting
// list, or, when the list is longer than markedSplitRatio times the node,
// through holds(ri), which reports whether record ri holds t. without may
// alias node's backing array from its start: every record is read before
// its slot is written.
func (p postings) partition(node []int32, t int32, m *marks, holds func(ri int32) bool, with, without []int32) ([]int32, []int32) {
	list := p.of(t)
	if len(list) > markedSplitRatio*len(node) {
		for _, ri := range node {
			if holds(ri) {
				with = append(with, ri)
			} else {
				without = append(without, ri)
			}
		}
		return with, without
	}
	m.mark(list)
	for _, ri := range node {
		if m.stamp[ri] == m.epoch {
			with = append(with, ri)
		} else {
			without = append(without, ri)
		}
	}
	return with, without
}

// marks is an epoch-stamped set of record indexes: a record is in the set
// when its stamp equals the current epoch, so emptying the set is one
// increment instead of a walk.
type marks struct {
	stamp []uint32
	epoch uint32
}

func newMarks(n int) *marks { return &marks{stamp: make([]uint32, n)} }

// mark empties the set and adds the records of list.
func (m *marks) mark(list []int32) {
	m.epoch++
	if m.epoch == 0 { // wrapped: stale stamps could match again
		clear(m.stamp)
		m.epoch = 1
	}
	for _, ri := range list {
		m.stamp[ri] = m.epoch
	}
}
