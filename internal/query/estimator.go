package query

import (
	"runtime"
	"sync"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/par"
	"disasso/internal/qindex"
)

// supportViaScan routes Estimator.Support through the retained linear scan
// path instead of the inverted index — the correctness oracle. Tests flip it
// to cross-check the two paths; building with -tags query_scan flips the
// default so the whole suite (including the HTTP server tests) runs on the
// scan path, the same device as internal/core's refine_replan tag.
var supportViaScan = supportViaScanDefault

// Estimator answers support queries over one published dataset through an
// inverted term index: a query visits only the clusters in the intersection
// of its terms' posting lists (sublinear in the cluster count), and
// singleton queries return precomputed estimates without touching the forest
// at all. The estimator is immutable after construction, so any number of
// goroutines may query it concurrently.
//
// Estimates are identical — bit for bit, including float rounding — to the
// scan path Support: the non-intersecting clusters a scan visits contribute
// exact zeros, and the singleton precomputation replays the scan's
// arithmetic operation by operation.
type Estimator struct {
	a          *core.Anonymized
	ix         *qindex.Index
	nodes      *nodeIndex // node-level term index of the multi-term path
	singles    []Estimate // rank -> Support(a, {term})
	numRecords int

	// lazyNodes defers building nodes until the first multi-term query — the
	// snapshot-recovery mode, where the index slabs and singleton table come
	// straight off the snapshot file and rebuilding the node-level term index
	// up front would turn an O(1) restart back into an O(dataset) reindex.
	// Singleton queries (the common case) never trigger the build.
	lazyNodes bool
	nodesOnce sync.Once
}

// NewEstimator builds the inverted index over the published dataset and the
// estimator on top of it. The node-level term index and the singleton table
// both only read the forest and the index, so they are built side by side
// when a second processor can run one (on one, two goroutines would only
// take turns).
func NewEstimator(a *core.Anonymized) *Estimator {
	ix := qindex.Build(a)
	var nodes *nodeIndex
	var singles []Estimate
	par.Do(runtime.GOMAXPROCS(0), 2, func(i int) {
		if i == 0 {
			nodes = buildNodeIndex(a, ix)
		} else {
			singles = computeSingles(a, ix)
		}
	})
	return &Estimator{
		a:          a,
		ix:         ix,
		nodes:      nodes,
		singles:    singles,
		numRecords: a.NumRecords(),
	}
}

// NewRecoveredEstimator builds an estimator over serving state recovered
// from a persisted snapshot: a decoded publication, an index whose slabs may
// be zero-copy views over a file mapping, and the persisted singleton
// estimate table (rank order, as Singles returns). The node-level term
// index is rebuilt lazily on the first multi-term query, so recovery
// itself performs no index construction. The estimates are identical to
// NewEstimator(a)'s: the singleton table is the one the original estimator
// computed, and the multi-term path runs the same indexed evaluation over
// the same forest.
func NewRecoveredEstimator(a *core.Anonymized, ix *qindex.Index, singles []Estimate) *Estimator {
	return &Estimator{
		a:          a,
		ix:         ix,
		singles:    singles,
		numRecords: a.NumRecords(),
		lazyNodes:  true,
	}
}

// loadNodes returns the node-level term index, building it on first use
// for recovered estimators. Safe for concurrent callers.
func (e *Estimator) loadNodes() *nodeIndex {
	if e.lazyNodes {
		e.nodesOnce.Do(func() { e.nodes = buildNodeIndex(e.a, e.ix) })
	}
	return e.nodes
}

// Index returns the underlying inverted index.
func (e *Estimator) Index() *qindex.Index { return e.ix }

// Singles returns the precomputed singleton estimate table, indexed by the
// underlying index's term ranks — the slab internal/snapfile persists.
// Callers must not modify the returned slice.
func (e *Estimator) Singles() []Estimate { return e.singles }

// Support estimates the support of the normalized itemset s, returning the
// same Estimate as Support(a, s).
func (e *Estimator) Support(s dataset.Record) Estimate {
	if supportViaScan {
		return Support(e.a, s)
	}
	var est Estimate
	if len(s) == 0 {
		est.Lower = e.numRecords
		est.Upper = est.Lower
		est.Expected = float64(est.Lower)
		return est
	}
	if len(s) == 1 {
		if r, ok := e.ix.Rank(s[0]); ok {
			return e.singles[r]
		}
		return est
	}
	q := e.loadNodes().newEval(e.ix, s)
	for _, ci := range e.ix.IntersectClusters(nil, s) {
		var o Estimate
		if n := e.a.Clusters[ci]; n.IsLeaf() {
			o = estimateNode(n, s) // no tree to walk; see indexed_eval.go
		} else {
			o = q.cluster(ci)
		}
		est.Lower += o.Lower
		est.Upper += o.Upper
		est.Expected += o.Expected
	}
	return clampEstimate(est)
}

// sharedEntry is one ancestor shared chunk's view of a term during the
// singleton precomputation: how many of the chunk's subrecords carry the
// term, how many records the hosting joint spans, and the running capacity
// and probSum of the rank's stack up to and including this entry — what
// evalLeaf sums over the ancestor chain, summed once per chunk instead of
// once per leaf below it.
type sharedEntry struct {
	count    int
	span     int
	capacity int
	probSum  float64
}

// singlesPass carries the flat per-rank state of the singleton
// precomputation. All tables are indexed by the qindex rank; node-scoped
// accumulators are epoch-stamped by cluster id so nothing is cleared between
// clusters.
type singlesPass struct {
	ix *qindex.Index

	// Node-scoped accumulators, valid where nodeStamp matches the cluster.
	lower, upper []int
	expected     []float64
	touched      []int32
	nodeStamp    []int32

	// Ancestor shared-chunk stacks, in descent order, plus the ranks with
	// non-empty stacks (activation order; frames truncate on exit).
	shared       [][]sharedEntry
	activeShared []int32
	chunkRanks   []int32 // the ranks of the shared chunk being pushed

	// Leaf-scoped state, epoch-stamped per leaf.
	leafCnts    [][]int32 // counts per containing record chunk, chunk order
	leafTC      []bool
	leafTouched []int32
	leafStamp   []int32
	leafEpoch   int32
}

// computeSingles precomputes Support(a, {t}) for every published term in one
// walk over the forest, mirroring the scan path's arithmetic exactly: per
// leaf it replays evalLeaf's operations for the singleton case, per joint it
// adds the shared-chunk certain occurrences, per node it applies
// estimateNode's clamps in leaf-major accumulation order, and at the end it
// applies Support's final sandwich clamp.
func computeSingles(a *core.Anonymized, ix *qindex.Index) []Estimate {
	n := ix.NumTerms()
	p := &singlesPass{
		ix:        ix,
		lower:     make([]int, n),
		upper:     make([]int, n),
		expected:  make([]float64, n),
		nodeStamp: make([]int32, n),
		shared:    make([][]sharedEntry, n),
		leafCnts:  make([][]int32, n),
		leafTC:    make([]bool, n),
		leafStamp: make([]int32, n),
	}
	for i := range p.nodeStamp {
		p.nodeStamp[i] = -1
		p.leafStamp[i] = -1
	}
	singles := make([]Estimate, n)
	for ci, node := range a.Clusters {
		p.touched = p.touched[:0]
		p.walk(node, int32(ci))
		// estimateNode's node-level clamps, then the sum in cluster order,
		// the order the scan path adds clusters in: float addition is not
		// associative, so this order is what keeps Expected bit-identical.
		for _, r := range p.touched {
			o := clampEstimate(Estimate{Lower: p.lower[r], Upper: p.upper[r], Expected: p.expected[r]})
			singles[r].Lower += o.Lower
			singles[r].Upper += o.Upper
			singles[r].Expected += o.Expected
		}
	}
	for r := range singles {
		singles[r] = clampEstimate(singles[r])
	}
	return singles
}

// touch readies the node-scoped accumulators of a rank for the cluster.
func (p *singlesPass) touch(r int32, ci int32) {
	if p.nodeStamp[r] != ci {
		p.nodeStamp[r] = ci
		p.lower[r], p.upper[r], p.expected[r] = 0, 0, 0
		p.touched = append(p.touched, r)
	}
}

// walk processes one node of the cluster forest: joints push their shared
// chunks onto the per-term stacks for the descent and add their certain
// subrecord occurrences to Lower; leaves replay evalLeaf per term.
func (p *singlesPass) walk(n *core.ClusterNode, ci int32) {
	if n.IsLeaf() {
		p.leaf(n.Simple, ci)
		return
	}
	span := n.Size()
	activeMark := len(p.activeShared)
	for i := range n.SharedChunks {
		c := &n.SharedChunks[i]
		p.chunkRanks = p.chunkRanks[:0]
		for _, t := range c.Domain {
			r := p.ix.MustRank(t)
			if len(p.shared[r]) == 0 {
				p.activeShared = append(p.activeShared, r)
			}
			p.shared[r] = append(p.shared[r], sharedEntry{span: span})
			p.chunkRanks = append(p.chunkRanks, r)
		}
		for _, sr := range c.Subrecords {
			for _, t := range sr {
				r := p.ix.MustRank(t)
				// The subrecord term is in the domain, so the entry just
				// pushed for this chunk is the top of the rank's stack.
				p.shared[r][len(p.shared[r])-1].count++
				// Certain occurrence: a shared subrecord containing the
				// term lands on some record in every reconstruction.
				p.touch(r, ci)
				p.lower[r]++
			}
		}
		// The chunk's counts are final: extend each rank's running totals
		// by this entry, the next step of evalLeaf's root-to-leaf sums
		// (from 0, as evalLeaf starts, for the bottom entry).
		for _, r := range p.chunkRanks {
			s := p.shared[r]
			top := &s[len(s)-1]
			capacity, probSum := 0, 0.0
			if len(s) > 1 {
				capacity, probSum = s[len(s)-2].capacity, s[len(s)-2].probSum
			}
			top.capacity = capacity + top.count
			top.probSum = probSum + float64(top.count)/float64(top.span)
		}
	}
	for _, child := range n.Children {
		p.walk(child, ci)
	}
	// Pop this frame's stack entries; every rank activated at or below this
	// frame is empty again, so the active list truncates to its entry mark.
	for i := range n.SharedChunks {
		for _, t := range n.SharedChunks[i].Domain {
			r := p.ix.MustRank(t)
			p.shared[r] = p.shared[r][:len(p.shared[r])-1]
		}
	}
	p.activeShared = p.activeShared[:activeMark]
}

// leaf replays evalLeaf for every term visible at this leaf: the terms of
// its own record chunks and term chunk, plus the terms available from
// ancestor shared chunks.
func (p *singlesPass) leaf(leaf *core.Cluster, ci int32) {
	z := leaf.Size
	if z == 0 {
		return
	}
	p.leafEpoch++
	p.leafTouched = p.leafTouched[:0]
	touchLeaf := func(r int32) {
		if p.leafStamp[r] != p.leafEpoch {
			p.leafStamp[r] = p.leafEpoch
			p.leafCnts[r] = p.leafCnts[r][:0]
			p.leafTC[r] = false
			p.leafTouched = append(p.leafTouched, r)
		}
	}
	for i := range leaf.RecordChunks {
		c := &leaf.RecordChunks[i]
		for _, t := range c.Domain {
			r := p.ix.MustRank(t)
			touchLeaf(r)
			p.leafCnts[r] = append(p.leafCnts[r], 0)
		}
		for _, sr := range c.Subrecords {
			for _, t := range sr {
				r := p.ix.MustRank(t)
				p.leafCnts[r][len(p.leafCnts[r])-1]++
			}
		}
	}
	for _, t := range leaf.TermChunk {
		r := p.ix.MustRank(t)
		touchLeaf(r)
		p.leafTC[r] = true
	}

	fz := float64(z)
	// Terms hosted by the leaf's own chunks: evalLeaf's record-chunk and
	// term-chunk sections (ancestor chunks are never consulted once the
	// term is covered).
	for _, r := range p.leafTouched {
		expected := fz
		upper := -1
		inOneChunk := -1
		for _, cnt := range p.leafCnts[r] {
			c := int(cnt)
			inOneChunk = c
			expected *= float64(c) / fz
			if upper == -1 || c < upper {
				upper = c
			}
		}
		if p.leafTC[r] {
			expected /= fz
			if upper == -1 || z < upper {
				upper = z
			}
		}
		if upper > z {
			upper = z
		}
		p.touch(r, ci)
		switch {
		case inOneChunk >= 0 && !p.leafTC[r]:
			p.lower[r] += inOneChunk
		case p.leafTC[r]:
			p.lower[r]++
		}
		if upper > 0 {
			p.upper[r] += upper
		}
		p.expected[r] += expected
	}

	// Terms available only from ancestor shared chunks: evalLeaf's shared
	// section, whose capacity and probSum over the whole ancestor chain are
	// the running totals of the stack's top entry.
	for _, r := range p.activeShared {
		if p.leafStamp[r] == p.leafEpoch {
			continue // covered by the leaf's own chunks above
		}
		top := p.shared[r][len(p.shared[r])-1]
		capacity, probSum := top.capacity, top.probSum
		if probSum > 1 {
			probSum = 1
		}
		upper := capacity
		if upper > z {
			upper = z
		}
		p.touch(r, ci)
		if upper > 0 {
			p.upper[r] += upper
		}
		p.expected[r] += fz * probSum
	}
}
