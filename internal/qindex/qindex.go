// Package qindex builds an immutable inverted term index over a published
// (disassociated) dataset, the serving-side counterpart of the per-cluster
// dense index internal/core uses while anonymizing. Section 6 of the paper
// has analysts "directly query the anonymization result"; the index makes
// those queries sublinear in the number of clusters: each term maps to the
// posting list of top-level cluster nodes it occurs in, so an itemset query
// only ever visits the clusters in the intersection of its terms' posting
// lists.
//
// The index is two flat slabs over the dense rank domain (the published
// terms in ascending order, held as a dataset.DenseDomain, whose bucketed
// lookup ranks every term): the cluster ids of every posting list, grouped
// by rank, and their per-rank prefix-sum offsets. Build reads only the
// forest's chunk domains and term chunks — once to collect the domain
// (core.Anonymized.Domain), then twice to size and fill the posting lists —
// and the index is immutable afterwards, so any number of goroutines may
// query it concurrently without locking.
package qindex

import (
	"slices"

	"disasso/internal/core"
	"disasso/internal/dataset"
)

// Index is the immutable inverted index over one published dataset.
type Index struct {
	dom *dataset.DenseDomain // rank <-> global term, ascending

	post    []int32 // flat posting backing: cluster ids, grouped by rank
	postOff []int32 // rank -> offset into post; len == NumTerms()+1

	// retain pins a backing resource (a snapshot-file mapping) whose
	// lifetime must cover the index's: the slabs above may be views into it.
	retain any
}

// Slabs exposes the index's flat backing arrays — the sorted term domain,
// the posting slab of cluster ids and its per-rank prefix-sum offsets — for
// serialization (internal/snapfile persists exactly these three slabs).
// Callers must not modify the returned slices.
func (ix *Index) Slabs() (terms []dataset.Term, post, postOff []int32) {
	return ix.dom.Terms(), ix.post, ix.postOff
}

// FromSlabs assembles an Index directly over pre-built backing arrays — the
// inverse of Slabs, used by internal/snapfile to reconstruct an index as
// zero-copy views over a memory-mapped snapshot file. The slabs must satisfy
// the Build invariants (terms strictly ascending; postOff a monotone prefix
// sum with postOff[len(terms)] == len(post); every posting list strictly
// ascending, ids valid for the forest served with it); snapfile's reader
// validates them before calling. The rank domain wraps terms without copying
// it. retain, when non-nil, is stored in the index solely to keep a backing
// resource (the file mapping) reachable for as long as the index is.
func FromSlabs(terms []dataset.Term, post, postOff []int32, retain any) *Index {
	return &Index{dom: dataset.NewDenseDomainFromTerms(terms), post: post, postOff: postOff, retain: retain}
}

// Build walks the published forest and returns its inverted index.
func Build(a *core.Anonymized) *Index {
	ix := &Index{dom: dataset.NewDenseDomainFromTerms(a.Domain())}
	n := ix.dom.Len()

	// Pass 1 sizes every rank's posting list; pass 2 fills the flat slab
	// carved by prefix sums. Clusters are visited in order, so every list
	// comes out sorted by cluster id — the invariant IntersectClusters'
	// binary searches rely on.
	counts := make([]int32, n)
	ix.eachPosting(a, func(r, _ int32) { counts[r]++ })
	ix.postOff = make([]int32, n+1)
	for r, c := range counts {
		ix.postOff[r+1] = ix.postOff[r] + c
	}
	ix.post = make([]int32, ix.postOff[n])
	next := counts // reused as the per-rank write cursors
	copy(next, ix.postOff[:n])
	ix.eachPosting(a, func(r, ci int32) {
		ix.post[next[r]] = ci
		next[r]++
	})
	return ix
}

// eachPosting calls fn once for every (rank, cluster id) pair whose term
// occurs in the top-level cluster, in ascending cluster order. A per-rank
// stamp of the last cluster seen drops a term's repeat occurrences inside
// one cluster.
func (ix *Index) eachPosting(a *core.Anonymized, fn func(r, ci int32)) {
	stamp := make([]int32, ix.dom.Len())
	for i := range stamp {
		stamp[i] = -1
	}
	for i, node := range a.Clusters {
		ci := int32(i)
		chunkTerms(node, func(terms []dataset.Term) {
			for _, t := range terms {
				if r := ix.MustRank(t); stamp[r] != ci {
					stamp[r] = ci
					fn(r, ci)
				}
			}
		})
	}
}

// chunkTerms calls visit with each chunk domain and term chunk under node.
// Subrecords need no walk: a subrecord's terms always lie inside its chunk's
// domain (the anonymity verifier checks this), so these lists hold every
// term the node publishes.
func chunkTerms(node *core.ClusterNode, visit func([]dataset.Term)) {
	node.Walk(func(cn *core.ClusterNode) {
		if cn.IsLeaf() {
			for _, c := range cn.Simple.RecordChunks {
				visit(c.Domain)
			}
			visit(cn.Simple.TermChunk)
			return
		}
		for _, c := range cn.SharedChunks {
			visit(c.Domain)
		}
	})
}

// MustRank returns the rank of a term that must be in the domain (panics
// otherwise) — for callers walking the indexed publication itself, where a
// missing term means a corrupted index.
func (ix *Index) MustRank(t dataset.Term) int32 {
	r, ok := ix.dom.ID(t)
	if !ok {
		panic("qindex: term outside the published domain")
	}
	return r
}

// NumTerms returns the published domain size |T|.
func (ix *Index) NumTerms() int { return ix.dom.Len() }

// Rank returns the dense rank of a term and whether it is in the domain.
func (ix *Index) Rank(t dataset.Term) (int32, bool) { return ix.dom.ID(t) }

// Postings returns the ids of the top-level cluster nodes the term occurs
// in, strictly ascending. The caller must not modify the returned slice.
func (ix *Index) Postings(rank int32) []int32 {
	return ix.post[ix.postOff[rank]:ix.postOff[rank+1]]
}

// IntersectClusters appends to dst the ids of the top-level cluster nodes
// containing every term of the normalized itemset — the only clusters that
// can contribute to the itemset's support — and returns dst. It returns nil
// dst unchanged when some term is outside the published domain. The merge
// starts from the rarest term's posting list, so cost is bounded by the
// shortest list, not the cluster count.
func (ix *Index) IntersectClusters(dst []int32, s dataset.Record) []int32 {
	if len(s) == 0 {
		return dst
	}
	lists := make([][]int32, len(s))
	for i, t := range s {
		r, ok := ix.Rank(t)
		if !ok {
			return dst
		}
		lists[i] = ix.Postings(r)
	}
	slices.SortFunc(lists, func(a, b []int32) int { return len(a) - len(b) })
outer:
	for _, ci := range lists[0] {
		for _, l := range lists[1:] {
			if _, ok := slices.BinarySearch(l, ci); !ok {
				continue outer
			}
		}
		dst = append(dst, ci)
	}
	return dst
}
