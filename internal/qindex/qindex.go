// Package qindex builds an immutable inverted term index over a published
// (disassociated) dataset, the serving-side counterpart of the per-cluster
// dense index internal/core uses while anonymizing. Section 6 of the paper
// has analysts "directly query the anonymization result"; the index makes
// those queries sublinear in the number of clusters: each term maps to the
// posting list of top-level cluster nodes it occurs in, so an itemset query
// only ever visits the clusters in the intersection of its terms' posting
// lists, and per-term aggregates (the Section 6 certain lower bounds) are
// answered without touching the forest at all.
//
// The index is built once in O(published size) — one walk over the forest,
// with every per-term table a flat slice over the dense rank domain (the
// published terms in ascending order, held as a dataset.DenseDomain, whose
// bucketed lookup ranks every term) — and is immutable afterwards, so any
// number of goroutines may query it concurrently without locking.
package qindex

import (
	"slices"

	"disasso/internal/core"
	"disasso/internal/dataset"
)

// Occurrence-kind bits of one posting: where inside the cluster node the
// term occurs. A term may carry several bits (e.g. hosted by one leaf's
// record chunk and another leaf's term chunk of the same joint cluster).
const (
	// OccRecordChunk: the term is in a record-chunk domain of some leaf.
	OccRecordChunk = 1 << iota
	// OccTermChunk: the term is in some leaf's term chunk.
	OccTermChunk
	// OccSharedChunk: the term is in a shared-chunk domain of some joint.
	OccSharedChunk
)

// Posting is one entry of a term's posting list: a top-level cluster node
// (index into Anonymized.Clusters) plus the occurrence-kind bits the term
// has inside it.
type Posting struct {
	Cluster int32
	Bits    uint8
}

// TermStats aggregates one term's occurrences across the whole publication.
type TermStats struct {
	// SubrecordOcc counts subrecords containing the term across all record
	// and shared chunks — occurrences certain in every reconstruction.
	SubrecordOcc int
	// TermChunkOcc counts the term chunks holding the term; each contributes
	// exactly one certain appearance (presence, not multiplicity).
	TermChunkOcc int
	// Clusters is the term's posting-list length.
	Clusters int
}

// LowerBoundSupport is the Section 6 certain lower bound of the term's
// support: every subrecord occurrence plus one appearance per term chunk.
// It equals Anonymized.LowerBoundSupports()[term].
func (s TermStats) LowerBoundSupport() int { return s.SubrecordOcc + s.TermChunkOcc }

// Index is the immutable inverted index over one published dataset.
type Index struct {
	a   *core.Anonymized
	dom *dataset.DenseDomain // rank <-> global term, ascending

	post    []Posting // flat posting backing, grouped by rank
	postOff []int32   // rank -> offset into post; len == NumTerms()+1

	stats []TermStats // rank -> aggregate occurrence counts

	// retain pins a backing resource (a snapshot-file mapping) whose
	// lifetime must cover the index's: the slabs above may be views into it.
	retain any
}

// Slabs exposes the index's flat backing arrays — the sorted term domain,
// the posting slab, its per-rank prefix-sum offsets and the per-term
// aggregate stats — for serialization (internal/snapfile persists exactly
// these four slabs). Callers must not modify the returned slices.
func (ix *Index) Slabs() (terms []dataset.Term, post []Posting, postOff []int32, stats []TermStats) {
	return ix.dom.Terms(), ix.post, ix.postOff, ix.stats
}

// FromSlabs assembles an Index directly over pre-built backing arrays — the
// inverse of Slabs, used by internal/snapfile to reconstruct an index as
// zero-copy views over a memory-mapped snapshot file. The slabs must satisfy
// the Build invariants (terms strictly ascending; postOff a monotone prefix
// sum with postOff[len(terms)] == len(post); every posting list sorted by
// cluster id, ids valid for a); snapfile's reader validates them before
// calling. The rank domain wraps terms without copying it. retain, when
// non-nil, is stored in the index solely to keep a backing resource (the file
// mapping) reachable for as long as the index is.
func FromSlabs(a *core.Anonymized, terms []dataset.Term, post []Posting, postOff []int32, stats []TermStats, retain any) *Index {
	return &Index{a: a, dom: dataset.NewDenseDomainFromTerms(terms), post: post, postOff: postOff, stats: stats, retain: retain}
}

// Build scans the published forest once and returns its inverted index.
func Build(a *core.Anonymized) *Index {
	ix := &Index{a: a, dom: dataset.NewDenseDomainFromTerms(collectDomain(a))}
	n := ix.dom.Len()
	ix.stats = make([]TermStats, n)

	// Pass 1 over the forest: per-term posting-list lengths and occurrence
	// stats, using an epoch-stamped bits table so each (term, cluster) pair
	// is counted once however many times the term occurs inside the cluster.
	counts := make([]int32, n)
	bits := make([]uint8, n)
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	for ci, node := range a.Clusters {
		ix.scanNode(node, int32(ci), counts, bits, stamp, nil)
	}

	// Carve the flat posting slab by prefix sums, then fill in pass 2. The
	// clusters are walked in order, so every posting list ends up sorted by
	// cluster id — the invariant the intersection merge relies on.
	ix.postOff = make([]int32, n+1)
	total := int32(0)
	for r, c := range counts {
		ix.postOff[r] = total
		total += c
	}
	ix.postOff[n] = total
	ix.post = make([]Posting, total)
	next := make([]int32, n)
	copy(next, ix.postOff[:n])
	for i := range stamp {
		stamp[i] = -1
	}
	for ci, node := range a.Clusters {
		ix.scanNode(node, int32(ci), nil, bits, stamp, next)
	}
	for r := range ix.stats {
		ix.stats[r].Clusters = int(counts[r])
	}
	return ix
}

// collectDomain returns the published domain as a sorted term slice — the
// rank space — in one flat pass (the forest-walk analogue of
// core.collectTerms).
func collectDomain(a *core.Anonymized) []dataset.Term {
	var all []dataset.Term
	for _, n := range a.Clusters {
		n.Walk(func(cn *core.ClusterNode) {
			if cn.IsLeaf() {
				for _, c := range cn.Simple.RecordChunks {
					all = append(all, c.Domain...)
				}
				all = append(all, cn.Simple.TermChunk...)
			} else {
				for _, c := range cn.SharedChunks {
					all = append(all, c.Domain...)
				}
			}
		})
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// scanNode walks one top-level cluster node accumulating per-term state. In
// the counting pass (counts non-nil) it sizes posting lists and fills
// TermStats; in the fill pass (next non-nil) it writes the postings. The
// stamp table tracks which ranks have been seen for the current cluster;
// bits accumulates the occurrence kinds while the cluster is being walked
// and is flushed into the posting on first sight in the fill pass — so the
// fill pass ORs bits as it goes, updating the already-written posting.
func (ix *Index) scanNode(node *core.ClusterNode, ci int32, counts []int32, bits []uint8, stamp []int32, next []int32) {
	touch := func(t dataset.Term, kind uint8, subOcc, tcOcc int) {
		r := ix.MustRank(t)
		if stamp[r] != ci {
			stamp[r] = ci
			bits[r] = 0
			if counts != nil {
				counts[r]++
			}
			if next != nil {
				ix.post[next[r]] = Posting{Cluster: ci}
				next[r]++
			}
		}
		bits[r] |= kind
		if next != nil {
			ix.post[next[r]-1].Bits = bits[r]
		}
		if counts != nil {
			ix.stats[r].SubrecordOcc += subOcc
			ix.stats[r].TermChunkOcc += tcOcc
		}
	}
	node.Walk(func(cn *core.ClusterNode) {
		if cn.IsLeaf() {
			for _, c := range cn.Simple.RecordChunks {
				for _, t := range c.Domain {
					touch(t, OccRecordChunk, 0, 0)
				}
				for _, sr := range c.Subrecords {
					for _, t := range sr {
						touch(t, OccRecordChunk, 1, 0)
					}
				}
			}
			for _, t := range cn.Simple.TermChunk {
				touch(t, OccTermChunk, 0, 1)
			}
			return
		}
		for _, c := range cn.SharedChunks {
			for _, t := range c.Domain {
				touch(t, OccSharedChunk, 0, 0)
			}
			for _, sr := range c.Subrecords {
				for _, t := range sr {
					touch(t, OccSharedChunk, 1, 0)
				}
			}
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

// Anonymized returns the published dataset the index was built over.
func (ix *Index) Anonymized() *core.Anonymized { return ix.a }

// NumTerms returns the published domain size |T|.
func (ix *Index) NumTerms() int { return ix.dom.Len() }

// Rank returns the dense rank of a term and whether it is in the domain.
func (ix *Index) Rank(t dataset.Term) (int32, bool) { return ix.dom.ID(t) }

// Postings returns the term's posting list, sorted by cluster id. The caller
// must not modify the returned slice.
func (ix *Index) Postings(rank int32) []Posting {
	return ix.post[ix.postOff[rank]:ix.postOff[rank+1]]
}

// Stats returns the term's aggregate occurrence counts.
func (ix *Index) Stats(rank int32) TermStats { return ix.stats[rank] }

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
	lists := make([][]Posting, len(s))
	for i, t := range s {
		r, ok := ix.Rank(t)
		if !ok {
			return dst
		}
		lists[i] = ix.Postings(r)
	}
	slices.SortFunc(lists, func(a, b []Posting) int { return len(a) - len(b) })
outer:
	for _, p := range lists[0] {
		for _, l := range lists[1:] {
			if !containsCluster(l, p.Cluster) {
				continue outer
			}
		}
		dst = append(dst, p.Cluster)
	}
	return dst
}

// containsCluster reports whether the posting list (sorted by cluster) holds
// the cluster id.
func containsCluster(l []Posting, c int32) bool {
	_, ok := slices.BinarySearchFunc(l, c, func(p Posting, c int32) int {
		return int(p.Cluster - c)
	})
	return ok
}
