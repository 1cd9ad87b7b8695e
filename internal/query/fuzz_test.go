package query

import (
	"math"
	"slices"
	"testing"

	"disasso/internal/core"
	"disasso/internal/dataset"
)

// fuzzPool holds the terms a fuzzed forest may publish; fuzzAbsent is
// never published.
var fuzzPool = dataset.Record{1, 4, 7, 10, 13, 16}

const fuzzAbsent = 19

// fuzzMaxDepth is the deepest nesting of a fuzzed forest: a node at this
// depth is a leaf.
const fuzzMaxDepth = 4

// forestReader decodes a well-formed forest from fuzz bytes, reading 0 past
// the end. Leaves hold 1–4 records and disjoint parts; every chunk holds at
// most one subrecord per record of its node, each a non-empty subset of the
// chunk's domain. Nothing else is constrained: shared chunks may repeat
// terms of their ancestors and descendants, so probSum can pass 1.
type forestReader struct{ data []byte }

func (r *forestReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// forest reads 1–3 top-level clusters.
func (r *forestReader) forest() *core.Anonymized {
	a := &core.Anonymized{K: 2, M: 2}
	for range 1 + r.next()%3 {
		a.Clusters = append(a.Clusters, r.node(0))
	}
	return a
}

// node reads a tag byte: an even tag, or any at fuzzMaxDepth, is a leaf,
// an odd one a joint of 2 or 3 children followed by up to 2 shared chunks.
func (r *forestReader) node(depth int) *core.ClusterNode {
	tag := r.next()
	if depth == fuzzMaxDepth || tag%2 == 0 {
		return &core.ClusterNode{Simple: r.leaf()}
	}
	n := &core.ClusterNode{SharedChunks: []core.Chunk{}}
	for range 2 + tag/2%2 {
		n.Children = append(n.Children, r.node(depth+1))
	}
	span := n.Size()
	for range r.next() % 3 {
		if domain := pick(fuzzPool, r.next()); len(domain) > 0 {
			n.SharedChunks = append(n.SharedChunks, r.chunk(domain, span))
		}
	}
	return n
}

// leaf reads a size byte, then one byte per pool term placing it in no
// part (0), the term chunk (1) or one of two record chunks (2, 3), then
// each non-empty record chunk's subrecords.
func (r *forestReader) leaf() *core.Cluster {
	size := 1 + r.next()%4
	var parts [3]dataset.Record
	for _, t := range fuzzPool {
		if p := r.next() % 4; p > 0 {
			parts[p-1] = append(parts[p-1], t)
		}
	}
	leaf := &core.Cluster{Size: size, TermChunk: parts[0], RecordChunks: []core.Chunk{}}
	for _, domain := range parts[1:] {
		if len(domain) > 0 {
			leaf.RecordChunks = append(leaf.RecordChunks, r.chunk(domain, size))
		}
	}
	return leaf
}

// chunk reads a count byte, at most records subrecords, then one bit mask
// over the domain per subrecord; an empty subrecord is dropped.
func (r *forestReader) chunk(domain dataset.Record, records int) core.Chunk {
	c := core.Chunk{Domain: domain, Subrecords: []dataset.Record{}}
	for range r.next() % (records + 1) {
		if sr := pick(domain, r.next()); len(sr) > 0 {
			c.Subrecords = append(c.Subrecords, sr)
		}
	}
	return c
}

// pick returns the terms of pool whose bit is set in mask.
func pick(pool dataset.Record, mask int) dataset.Record {
	var out dataset.Record
	for i, t := range pool {
		if mask>>i&1 == 1 {
			out = append(out, t)
		}
	}
	return out
}

// FuzzEstimatorMatchesScan decodes a small forest and asks every 1–3-term
// itemset over its term pool and one unpublished term of the eager and the
// recovered estimator, which must equal the scan bit for bit.
func FuzzEstimatorMatchesScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 3, 1, 2, 3, 0, 1, 1, 3, 0, 0, 0, 1, 1, 2, 7, 2, 3, 5, 1, 3, 3})
	// One cluster J1(J2(L1, L2), L3). L1 (2 records) and L3 (4) hold t2 in a
	// record chunk, in every subrecord; J1 (span 8) shares t0 and t1 in two
	// chunks of 6 subrecords each, J2 (span 4) in two of 2. Under J2 t0's and
	// t1's probSum is 1.25, so {t0, t1} needs the clamp in leaves (L1, L2)
	// and {t0, t2} the one in leaf (L1); L3 follows J2's end, where the walk
	// must restore their probSum to 0.75 before summing it.
	f.Add([]byte{
		// One cluster; J1 and J2 have two children each.
		0, 1, 1,
		// L1: 2 records, t2 in a record chunk of 2 subrecords {t2}.
		0, 1, 0, 0, 2, 0, 0, 0, 2, 1, 1,
		// L2: 2 records, no parts.
		0, 1, 0, 0, 0, 0, 0, 0,
		// J2: shared chunks {t0} and {t1}, 2 subrecords each.
		2, 1, 2, 1, 1, 2, 2, 1, 1,
		// L3: 4 records, t2 in a record chunk of 4 subrecords {t2}.
		0, 3, 0, 0, 2, 0, 0, 0, 4, 1, 1, 1, 1,
		// J1: shared chunks {t0} and {t1}, 6 subrecords each.
		2, 1, 6, 1, 1, 1, 1, 1, 1, 2, 6, 1, 1, 1, 1, 1, 1,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := (&forestReader{data: data}).forest()
		est := NewEstimator(a)
		rec := NewRecoveredEstimator(a, est.Index(), est.Singles())
		pool := append(slices.Clone(fuzzPool), fuzzAbsent)
		check := func(s dataset.Record) {
			want := Support(a, s)
			for _, e := range []*Estimator{est, rec} {
				if got := e.Support(s); !sameEstimate(got, want) {
					t.Fatalf("itemset %v: indexed %+v != scan %+v", s, got, want)
				}
			}
		}
		forceIndexed(t, func() {
			for i := range pool {
				check(dataset.Record{pool[i]})
				for j := i + 1; j < len(pool); j++ {
					check(dataset.Record{pool[i], pool[j]})
					for k := j + 1; k < len(pool); k++ {
						check(dataset.Record{pool[i], pool[j], pool[k]})
					}
				}
			}
		})
	})
}

// sameEstimate compares two estimates bit for bit.
func sameEstimate(a, b Estimate) bool {
	return a.Lower == b.Lower && a.Upper == b.Upper &&
		math.Float64bits(a.Expected) == math.Float64bits(b.Expected)
}
