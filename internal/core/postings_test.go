package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"disasso/internal/dataset"
)

// randomDense returns n records of 1–maxLen distinct dense ids below nTerms,
// each sorted.
func randomDense(rng *rand.Rand, n, nTerms, maxLen int) []dataset.Record {
	recs := make([]dataset.Record, n)
	for i := range recs {
		var r []dataset.Term
		for range 1 + rng.IntN(maxLen) {
			r = append(r, dataset.Term(rng.IntN(nTerms)))
		}
		recs[i] = dataset.NewRecord(r...)
	}
	return recs
}

// TestPostingsMatchRecords: every term's posting list holds exactly the
// indexes of the records that hold it, ascending.
func TestPostingsMatchRecords(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	const nTerms = 60
	recs := randomDense(rng, 400, nTerms, 8)
	p := newPostings(recs, nTerms)
	for term := range int32(nTerms) {
		var want []int32
		for ri, r := range recs {
			if r.Contains(dataset.Term(term)) {
				want = append(want, int32(ri))
			}
		}
		if got := p.of(term); !slices.Equal(got, want) {
			t.Fatalf("term %d: postings %v, want %v", term, got, want)
		}
	}
}

// TestPostingsPartitionMatchesSearch: a split through a posting list puts
// the same records on the same sides, in the same order, as the per-record
// search, on nodes small and large against the list (so both sides of
// markedSplitRatio run), into fresh slices and in place over the node.
func TestPostingsPartitionMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	const nTerms = 40
	recs := randomDense(rng, 600, nTerms, 6)
	p := newPostings(recs, nTerms)
	m := newMarks(len(recs))
	var marked, searched int
	for trial := range 400 {
		// A node is an ascending subset of the records, from a handful to
		// nearly all of them.
		keep := 1 + rng.IntN(100)
		var node []int32
		for ri := range recs {
			if rng.IntN(100) < keep {
				node = append(node, int32(ri))
			}
		}
		term := int32(rng.IntN(nTerms))
		holds := func(ri int32) bool { return recs[ri].Contains(dataset.Term(term)) }
		var wantWith, wantWithout []int32
		for _, ri := range node {
			if holds(ri) {
				wantWith = append(wantWith, ri)
			} else {
				wantWithout = append(wantWithout, ri)
			}
		}
		viaList := len(p.of(term)) <= markedSplitRatio*len(node)
		if viaList {
			marked++
		} else {
			searched++
		}
		with, without := p.partition(node, term, m, holds, nil, nil)
		if !slices.Equal(with, wantWith) || !slices.Equal(without, wantWithout) {
			t.Fatalf("trial %d (through postings: %v): sides differ from the per-record search", trial, viaList)
		}
		inPlace := slices.Clone(node)
		with, without = p.partition(inPlace, term, m, holds, nil, inPlace[:0])
		if !slices.Equal(with, wantWith) || !slices.Equal(without, wantWithout) {
			t.Fatalf("trial %d: in-place sides differ from the per-record search", trial)
		}
	}
	if marked == 0 || searched == 0 {
		t.Fatalf("%d partitions through postings, %d searched: the trials need both", marked, searched)
	}
}

// TestMarksEpochWrap: when the epoch wraps, stamps of an earlier epoch with
// the same number must not read as marked.
func TestMarksEpochWrap(t *testing.T) {
	m := newMarks(4)
	m.mark([]int32{2}) // epoch 1
	m.epoch = math.MaxUint32
	m.mark([]int32{0}) // wraps back to epoch 1
	for ri, want := range []bool{true, false, false, false} {
		if got := m.stamp[ri] == m.epoch; got != want {
			t.Errorf("record %d marked=%v after the wrap, want %v", ri, got, want)
		}
	}
}
