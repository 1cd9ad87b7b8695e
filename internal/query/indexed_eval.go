package query

import (
	"cmp"
	"math"
	"slices"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/qindex"
)

// The indexed per-cluster evaluator. Intersecting posting lists tells the
// Estimator which top-level clusters to visit; this file makes each visit
// cheap. REFINE nests leaves into joint clusters hundreds of leaves wide, and
// the scan path's estimateNode evaluates every leaf of a candidate: it
// intersects each leaf chunk's domain with the itemset, and counts each term
// the leaf lacks in every ancestor shared chunk again, leaf after leaf —
// although only a few dozen leaves hold a query term in their own chunks.
//
// The Estimator instead keeps one node-level term index per publication.
// Every node of a joint cluster is numbered in pre-order, so a top-level
// joint is a contiguous id range and a subtree is [id, end). Per term rank
// the index holds one entry per chunk domain or term chunk containing the
// term: the node, the chunk, and how many of the chunk's subrecords carry
// the term. A single-leaf cluster has no tree to walk, so Support evaluates
// it with the scan's own estimateNode and the index holds nothing for it:
// sharded publications are mostly single leaves, whose term chunks would
// make the build dearer than the evaluations it saves.
// An evaluation crosses the cluster's id range once, with a cursor per
// query term into its entries and per-term ancestor accumulators (found,
// capacity, probSum) that only joints with an entry for the term update.
// It steps from event to event rather than node to node: an event is the
// next node with an entry for some query term, the end of the innermost
// joint that saved an accumulator, or the cluster's end. Between two events
// the accumulators stay put, the joints hold no query term and the leaves
// hold none either, so those leaves are summed in one loop over the index's
// leaf slab — every leaf's size in pre-order, found through a per-node count
// of the leaves numbered before it — and the joints add nothing. While some
// term is available from no ancestor, no such leaf can hold the itemset and
// the whole stretch adds nothing. An event node holds entries: its hits are
// gathered and it is evaluated on its own, and a subtree is skipped when
// some term is neither available from its ancestors nor held anywhere inside
// it — every leaf there is impossible and no shared chunk there holds the
// whole itemset. Integer counts equal the scan's: one-term counts are the
// per-entry counts, and a chunk holding several query terms is counted with
// the scan's own countContaining. Every float operation of estimateNode is
// replayed in the same order — leaves left to right, each term's factor in
// term order within a leaf, probSum root to leaf and in chunk order within
// a joint — so the results match the scan bit for bit.

// termChunkPos is the chunk position a leaf's term chunk takes in a
// termEntry. It sorts after every record chunk, the order evalLeaf applies
// the two in.
const termChunkPos = math.MaxInt32

// termEntry is one term membership: chunk position chunk of the node
// numbered node holds the term in its domain, and count of the chunk's
// subrecords carry it (0 for a term chunk).
type termEntry struct {
	node, chunk, count int32
}

// flatNode is one forest node in pre-order.
type flatNode struct {
	end  int32 // one past the last id of the node's subtree
	size int32 // records covered: the leaf's Size, or the joint's span
	leaf bool
}

// nodeIndex is the node-level term index of one publication.
type nodeIndex struct {
	nodes  []*core.ClusterNode // id -> node, for counts over several terms
	flat   []flatNode          // id -> shape
	roots  []int32             // top-level cluster -> id of its root; -1 for a single leaf
	ent    []termEntry         // grouped by term rank; (node, chunk) ascending within a rank
	entOff []int32             // rank -> offset into ent; len == NumTerms()+1

	// The leaves of [lo, hi) are leafSizes[leavesBefore[lo]:leavesBefore[hi]].
	leafSizes    []int32 // the leaves' sizes, in pre-order
	leavesBefore []int32 // id -> leaves numbered before it; len == len(nodes)+1
}

// buildNodeIndex builds the node-level term index in two counting passes,
// the device of qindex.Build. The first numbers the nodes and counts each
// rank's entries, and the leaf slab is read off its pre-order arrays; the
// second carves one flat slab by prefix sums and fills it, counting
// subrecord occurrences per entry. A term outside the index's domain gets
// no entry and a subrecord term outside its chunk's domain is not counted:
// a recovered forest is never cross-checked against the persisted index
// slabs, so the build takes whatever it finds.
func buildNodeIndex(a *core.Anonymized, ix *qindex.Index) *nodeIndex {
	n := ix.NumTerms()
	ni := &nodeIndex{roots: make([]int32, len(a.Clusters)), entOff: make([]int32, n+1)}
	for ci, c := range a.Clusters {
		ni.roots[ci] = -1
		if !c.IsLeaf() {
			ni.roots[ci] = int32(len(ni.nodes))
			ni.number(c, ix)
		}
	}
	ni.leavesBefore = make([]int32, len(ni.flat)+1)
	for id, fn := range ni.flat {
		ni.leavesBefore[id+1] = ni.leavesBefore[id]
		if fn.leaf {
			ni.leavesBefore[id+1]++
		}
	}
	ni.leafSizes = make([]int32, 0, ni.leavesBefore[len(ni.flat)])
	for _, fn := range ni.flat {
		if fn.leaf {
			ni.leafSizes = append(ni.leafSizes, fn.size)
		}
	}
	for r := range n {
		ni.entOff[r+1] += ni.entOff[r]
	}
	ni.ent = make([]termEntry, ni.entOff[n])
	next := slices.Clone(ni.entOff[:n])

	// slot holds, per rank, the entry last written for it. A subrecord term
	// counts toward that entry only if it belongs to the chunk being filled.
	slot := make([]int32, n)
	for r := range slot {
		slot[r] = -1
	}
	add := func(id, chunk int32, d dataset.Record) {
		for _, t := range d {
			if r, ok := ix.Rank(t); ok {
				ni.ent[next[r]] = termEntry{node: id, chunk: chunk}
				slot[r] = next[r]
				next[r]++
			}
		}
	}
	addChunk := func(id, chunk int32, c *core.Chunk) {
		add(id, chunk, c.Domain)
		for _, sr := range c.Subrecords {
			for _, t := range sr {
				if r, ok := ix.Rank(t); ok && slot[r] >= 0 {
					if e := &ni.ent[slot[r]]; e.node == id && e.chunk == chunk {
						e.count++
					}
				}
			}
		}
	}
	for id, n := range ni.nodes {
		if n.IsLeaf() {
			for c := range n.Simple.RecordChunks {
				addChunk(int32(id), int32(c), &n.Simple.RecordChunks[c])
			}
			add(int32(id), termChunkPos, n.Simple.TermChunk)
			continue
		}
		for c := range n.SharedChunks {
			addChunk(int32(id), int32(c), &n.SharedChunks[c])
		}
	}
	return ni
}

// number appends the subtree of n to the pre-order arrays and counts the
// entries of its domain terms in entOff[rank+1]. It sets the subtree's end
// and record count on the way up.
func (ni *nodeIndex) number(n *core.ClusterNode, ix *qindex.Index) {
	id := len(ni.nodes)
	ni.nodes = append(ni.nodes, n)
	ni.flat = append(ni.flat, flatNode{leaf: n.IsLeaf()})
	count := func(d dataset.Record) {
		for _, t := range d {
			if r, ok := ix.Rank(t); ok {
				ni.entOff[r+1]++
			}
		}
	}
	var size int32
	if n.IsLeaf() {
		size = int32(n.Simple.Size)
		for _, c := range n.Simple.RecordChunks {
			count(c.Domain)
		}
		count(n.Simple.TermChunk)
	} else {
		for _, c := range n.SharedChunks {
			count(c.Domain)
		}
		for _, child := range n.Children {
			cid := len(ni.nodes)
			ni.number(child, ix)
			size += ni.flat[cid].size
		}
	}
	ni.flat[id].size = size
	ni.flat[id].end = int32(len(ni.nodes))
}

// ancestorAcc is what the ancestors of the current node offer one term:
// some ancestor shared chunk holds it (found), its subrecords carrying it
// summed over those chunks (capacity), and Σ count/span root to leaf
// (probSum).
type ancestorAcc struct {
	found    bool
	capacity int
	probSum  float64
}

// termCursor is one query term's state during a cluster walk.
type termCursor struct {
	entries []termEntry // the term's entries, ascending node
	at      int         // first entry whose node the walk has not passed
	ancestorAcc
	covered bool // set while evaluating a leaf: its own chunks hold the term
}

// seek moves the cursor to the term's first entry at or after node id.
func (tc *termCursor) seek(id int32) {
	if tc.at < len(tc.entries) && tc.entries[tc.at].node < id {
		i, _ := slices.BinarySearchFunc(tc.entries[tc.at:], id, func(e termEntry, id int32) int {
			return cmp.Compare(e.node, id)
		})
		tc.at += i
	}
}

// savedAcc is an ancestor accumulator a joint overwrote, restored when the
// walk leaves the joint's subtree.
type savedAcc struct {
	end, term int32
	acc       ancestorAcc
}

// hit is one entry at the node being evaluated.
type hit struct {
	chunk, term, count int32
}

// nodeEval evaluates one itemset cluster by cluster over a nodeIndex.
type nodeEval struct {
	ni      *nodeIndex
	s       dataset.Record
	terms   []termCursor // per term of s
	missing int          // terms no ancestor of the current node holds
	nextHit int32        // the least node id some cursor points at
	saves   []savedAcc   // stack, innermost joint last
	hits    []hit        // the current node's entries, by chunk then term
	probs   []float64    // per term, min(probSum, 1) for leaves
	slice   dataset.Record
}

// newEval readies the evaluation of the normalized itemset s.
func (ni *nodeIndex) newEval(ix *qindex.Index, s dataset.Record) *nodeEval {
	q := &nodeEval{ni: ni, s: s, terms: make([]termCursor, len(s)), probs: make([]float64, len(s))}
	for i, t := range s {
		if r, ok := ix.Rank(t); ok {
			q.terms[i].entries = ni.ent[ni.entOff[r]:ni.entOff[r+1]]
		}
	}
	return q
}

// cluster is estimateNode on the index: the estimate of top-level joint
// ci, stepping from event to event. Calls must come in ascending cluster
// order, since cursors only move forward.
func (q *nodeEval) cluster(ci int32) Estimate {
	lo := q.ni.roots[ci]
	hi := q.ni.flat[lo].end
	q.saves = q.saves[:0]
	q.missing = len(q.terms)
	for i := range q.terms {
		q.terms[i].ancestorAcc = ancestorAcc{}
	}
	q.seekAll(lo)
	var est Estimate
	for id := lo; id < hi; {
		for len(q.saves) > 0 && q.saves[len(q.saves)-1].end <= id {
			q.restore()
		}
		event := min(q.nextHit, hi)
		if len(q.saves) > 0 {
			event = min(event, q.saves[len(q.saves)-1].end)
		}
		if id < event {
			// A leaf without entries is impossible while some term is missing.
			if q.missing == 0 {
				q.leaves(id, event, &est)
			}
			id = event
			continue
		}
		fn := q.ni.flat[id]
		if q.missing > 0 && !q.reachable(fn.end) {
			q.seekAll(fn.end)
			id = fn.end
			continue
		}
		q.gather(id)
		if fn.leaf {
			q.leaf(id, int(fn.size), &est)
		} else {
			q.joint(id, fn, &est)
		}
		id++
	}
	return clampEstimate(est)
}

// reachable reports whether every term is available from the ancestors of
// the subtree ending at end or held by some entry inside it. When one is
// not, every leaf of the subtree is impossible (evalLeaf finds the term
// nowhere) and no shared chunk in it holds the whole itemset, so the
// subtree contributes exact zeros.
func (q *nodeEval) reachable(end int32) bool {
	for i := range q.terms {
		tc := &q.terms[i]
		if !tc.found && (tc.at == len(tc.entries) || tc.entries[tc.at].node >= end) {
			return false
		}
	}
	return true
}

// seekAll moves every cursor to its term's first entry at or after node id.
func (q *nodeEval) seekAll(id int32) {
	q.nextHit = math.MaxInt32
	for i := range q.terms {
		tc := &q.terms[i]
		tc.seek(id)
		if tc.at < len(tc.entries) {
			q.nextHit = min(q.nextHit, tc.entries[tc.at].node)
		}
	}
}

// gather collects the entries at node id into hits, ordered by chunk and,
// within a chunk, by term, and moves every cursor past them.
func (q *nodeEval) gather(id int32) {
	q.hits = q.hits[:0]
	q.nextHit = math.MaxInt32
	for i := range q.terms {
		tc := &q.terms[i]
		for ; tc.at < len(tc.entries) && tc.entries[tc.at].node == id; tc.at++ {
			e := tc.entries[tc.at]
			q.hits = append(q.hits, hit{chunk: e.chunk, term: int32(i), count: e.count})
		}
		if tc.at < len(tc.entries) {
			q.nextHit = min(q.nextHit, tc.entries[tc.at].node)
		}
	}
	if len(q.hits) > 1 {
		slices.SortStableFunc(q.hits, func(a, b hit) int { return cmp.Compare(a.chunk, b.chunk) })
	}
}

// nextGroup returns the hits of the first chunk in hits and the rest.
func nextGroup(hits []hit) (group, rest []hit) {
	j := 1
	for j < len(hits) && hits[j].chunk == hits[0].chunk {
		j++
	}
	return hits[:j], hits[j:]
}

// count returns how many subrecords of c carry every term of the group.
func (q *nodeEval) count(c *core.Chunk, group []hit) int {
	if len(group) == 1 {
		return int(group[0].count)
	}
	q.slice = q.slice[:0]
	for _, h := range group {
		q.slice = append(q.slice, q.s[h.term])
	}
	return countContaining(c, q.slice)
}

// joint adds the certain occurrences in the joint's shared chunks that hold
// the whole itemset, and pushes its shared chunks onto the ancestor
// accumulators of its subtree — walkLeaves' shared list and estimateNode's
// shared-chunk Lower block.
func (q *nodeEval) joint(id int32, fn flatNode, est *Estimate) {
	span := float64(fn.size)
	for group, rest := []hit(nil), q.hits; len(rest) > 0; {
		group, rest = nextGroup(rest)
		if len(group) == len(q.s) {
			est.Lower += q.count(&q.ni.nodes[id].SharedChunks[group[0].chunk], group)
		}
		for _, h := range group {
			tc := &q.terms[h.term]
			q.saves = append(q.saves, savedAcc{end: fn.end, term: h.term, acc: tc.ancestorAcc})
			if !tc.found {
				q.missing--
			}
			tc.found = true
			tc.capacity += int(h.count)
			tc.probSum += float64(h.count) / span
		}
	}
}

// restore pops the innermost saved accumulator.
func (q *nodeEval) restore() {
	sv := q.saves[len(q.saves)-1]
	q.saves = q.saves[:len(q.saves)-1]
	tc := &q.terms[sv.term]
	if tc.found && !sv.acc.found {
		q.missing++
	}
	tc.ancestorAcc = sv.acc
}

// leaf is evalLeaf on the index: the leaf's own chunks come from its hits,
// every other term from the ancestor accumulators.
func (q *nodeEval) leaf(id int32, z int, est *Estimate) {
	if z == 0 {
		return
	}
	fz := float64(z)
	upper := -1
	expected := fz
	inOneChunkCount := -1
	tcTerms := 0
	for group, rest := []hit(nil), q.hits; len(rest) > 0; {
		group, rest = nextGroup(rest)
		for _, h := range group {
			q.terms[h.term].covered = true
		}
		if group[0].chunk == termChunkPos {
			tcTerms = len(group)
			for range group {
				expected /= fz
			}
			if upper == -1 || z < upper {
				upper = z
			}
			continue
		}
		cnt := q.count(&q.ni.nodes[id].Simple.RecordChunks[group[0].chunk], group)
		if len(group) == len(q.s) {
			inOneChunkCount = cnt
		}
		expected *= float64(cnt) / fz
		if upper == -1 || cnt < upper {
			upper = cnt
		}
	}
	// Every term the leaf's own chunks lack is found in an ancestor: the
	// leaf passed reachable, and it has no entry for such a term.
	for i := range q.terms {
		tc := &q.terms[i]
		if tc.covered {
			tc.covered = false
			continue
		}
		probSum := tc.probSum
		if probSum > 1 {
			probSum = 1
		}
		expected *= probSum
		if upper == -1 || tc.capacity < upper {
			upper = tc.capacity
		}
	}
	if upper > z {
		upper = z
	}

	switch {
	case inOneChunkCount >= 0 && tcTerms == 0:
		est.Lower += inOneChunkCount
	case tcTerms == 1 && len(q.s) == 1:
		est.Lower++
	}
	if upper > 0 {
		est.Upper += upper
	}
	est.Expected += expected
}

// leaves is leaf for every leaf numbered in [lo, hi), none of which holds an
// entry, while every term is available from the ancestors: each leaf of
// size z > 0 adds z times each term's clamped probSum, in term order, to
// Expected and the least capacity, at most z, to Upper — leaf's arithmetic
// with no hits, operation by operation.
func (q *nodeEval) leaves(lo, hi int32, est *Estimate) {
	sizes := q.ni.leafSizes[q.ni.leavesBefore[lo]:q.ni.leavesBefore[hi]]
	if len(sizes) == 0 {
		return
	}
	least := math.MaxInt
	for i := range q.terms {
		tc := &q.terms[i]
		least = min(least, tc.capacity)
		q.probs[i] = min(tc.probSum, 1)
	}
	for _, z := range sizes {
		if z == 0 {
			continue
		}
		expected := float64(z)
		for _, p := range q.probs {
			expected *= p
		}
		est.Expected += expected
		if upper := min(least, int(z)); upper > 0 {
			est.Upper += upper
		}
	}
}
