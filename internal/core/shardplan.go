package core

import (
	"slices"

	"disasso/internal/dataset"
)

// Shard planning cuts HORPART's split tree into processing units ("shards")
// small enough to anonymize independently with bounded memory. The cut
// follows the same most-frequent-term rule as HORPART's own splits, so shard
// boundaries always coincide with cluster boundaries the unsharded pipeline
// would produce: a shard is a node of the split tree, and every HORPART leaf
// cluster lies entirely inside exactly one shard. Continuing HORPART inside
// the shard (with the split-path terms ignored) therefore reproduces the
// global clustering, in the same preorder.
//
// The cut is a declared semantic parameter (Options.MaxShardRecords), not an
// implementation detail: MergeUndersized and REFINE run per shard, so the
// published output depends on it. MaxShardRecords = 0 keeps the whole dataset
// in one shard, which is the historical (fully global) behavior.
//
// One recursion, planner.plan, computes the cut over a PlanSource: the
// in-memory records of a RepubState or the streaming engine's spill files
// (through Plan). Both paths cut at identical nodes, which is what makes a
// streamed publication byte-identical to the in-memory one.

// shardCut decides whether a shard-plan node should be split further. n is
// the node's record count and counts its per-term supports (read only when n
// exceeds maxShard), indexed like ignore (the terms unavailable for
// splitting: sensitive terms plus the split path) and terms (index → global
// term). It returns the term index HORPART's split of this node would use —
// the most frequent non-ignored term, ties toward the smaller global term,
// which is not the smaller index once a delta grew the universe — and its
// support.
//
// The node is split only when it exceeds maxShard records, a usable split
// term exists, and both sides keep at least k records: a shard below k
// records could not repair its undersized clusters locally (MergeUndersized
// runs per shard), so such lopsided cuts stay unsplit even if the shard then
// exceeds the target size. maxShard must be at least the HORPART cluster-size
// threshold, or a cut could land below a node HORPART would not split;
// Options.withDefaults enforces that clamp.
func shardCut(n int, counts []int32, ignore []bool, terms []dataset.Term, maxShard, k int) (term int32, sup int32, split bool) {
	if maxShard <= 0 || n <= maxShard {
		return -1, 0, false
	}
	best, bestSup := int32(-1), int32(0)
	for t, c := range counts {
		if c == 0 || ignore[t] {
			continue
		}
		if c > bestSup || (c == bestSup && terms[t] < terms[best]) {
			best, bestSup = int32(t), c
		}
	}
	if bestSup == 0 {
		return -1, 0, false
	}
	if int(bestSup) < k || n-int(bestSup) < k {
		return best, bestSup, false
	}
	return best, bestSup, true
}

// Shard is one independently anonymizable unit of a shard plan: a contiguous
// split-tree node's records (as dense term ids) together with the terms its
// split path consumed (plus the caller's excluded terms). Index is the
// shard's position in the plan's preorder; it parameterizes the shard's PRNG
// streams so shards can be processed in any order, or concurrently, without
// changing the output.
type Shard struct {
	Records []dataset.Record
	Ignore  []bool
	Index   int
}

// A PlanSource is the record storage behind one node of a shard plan. The
// planner never sees records: it asks a node for its size, splits it on a
// term index, and recounts it only when the parent's supports were not kept.
// Supports are indexed like the plan's term table.
type PlanSource[S any] interface {
	// Len returns the node's record count.
	Len() int
	// Split partitions the node's records on term index a, keeping their
	// relative order on both sides, and returns the with side's supports.
	// sup is the with side's record count. The node's own storage may be
	// released.
	Split(a, sup int32) (with, without S, withCounts []int32, err error)
	// Count returns the node's supports.
	Count() ([]int32, error)
}

// A PlanLeaf is one shard of a plan: its source and the term indexes its
// split path consumed, outermost first.
type PlanLeaf[S any] struct {
	Source S
	Path   []int32
}

// planNode is one node of a shard-plan decision tree: the record count and
// the supports shardCut's decision was made from, and the decision itself.
// Nodes are immutable once built — a delta republish copies every node it
// touches, so old snapshots stay valid.
type planNode struct {
	n int
	// counts is indexed by term index and may lag a grown universe (missing
	// = 0). It is nil when shardCut did not read it (n ≤ the cut) or the
	// planner does not retain supports.
	counts  []int32
	term    int32 // split term index; -1 for a leaf
	sup     int32
	with    *planNode
	without *planNode
	shard   int // leaf: its position in the plan's preorder; -1 for interior nodes
}

// planner carries one run of the shard-plan recursion.
type planner[S PlanSource[S]] struct {
	terms    []dataset.Term // index → global term, for shardCut's tie-break
	maxShard int
	k        int
	ignore   []bool  // excluded terms plus the split path; mutated and restored
	path     []int32 // the split path above the current node
	// retain keeps on every plan node the supports shardCut read, for a
	// delta republish to re-verify. Without it the without side takes over
	// its parent's supports, held across the with-subtree only while held
	// stays within holdCap bytes; past the cap it recounts when reached.
	retain  bool
	holdCap int64
	held    int64
	leaves  []PlanLeaf[S]
	first   int // the shard number of leaves[0]
}

// Plan cuts the records behind root into the shard plan of opts and returns
// the shards in preorder: the streaming engine's entry to the recursion.
// counts holds root's supports, terms the index → global-term table and
// exclude the terms never usable for splits. No node keeps its supports,
// and at most holdCap bytes of them are held across with-subtrees.
func Plan[S PlanSource[S]](root S, counts []int32, terms []dataset.Term, exclude []bool, opts Options, holdCap int64) ([]PlanLeaf[S], error) {
	p := &planner[S]{
		terms: terms, maxShard: opts.MaxShardRecords, k: opts.K,
		ignore: slices.Clone(exclude), holdCap: holdCap,
	}
	if _, err := p.plan(root, counts); err != nil {
		return nil, err
	}
	return p.leaves, nil
}

// decide is the planner's shardCut, under its current ignore set.
func (p *planner[S]) decide(n int, counts []int32) (term, sup int32, split bool) {
	return shardCut(n, counts, p.ignore, p.terms, p.maxShard, p.k)
}

// plan decides the node behind src and recurses into its sides, with side
// first, numbering leaves in that preorder. counts holds the node's supports
// and is ceded to the call; nil means they were not kept.
func (p *planner[S]) plan(src S, counts []int32) (*planNode, error) {
	nd := &planNode{n: src.Len(), term: -1, shard: -1}
	// shardCut reads the supports only past the cut, so an unsharded plan
	// never counts.
	if p.maxShard > 0 && nd.n > p.maxShard {
		if counts == nil {
			var err error
			if counts, err = src.Count(); err != nil {
				return nil, err
			}
		}
		if p.retain {
			nd.counts = counts
		}
	}
	a, sup, split := p.decide(nd.n, counts)
	if !split {
		nd.shard = p.first + len(p.leaves)
		p.leaves = append(p.leaves, PlanLeaf[S]{Source: src, Path: slices.Clone(p.path)})
		return nd, nil
	}
	nd.term, nd.sup = a, sup
	with, without, withCounts, err := src.Split(a, sup)
	if err != nil {
		return nil, err
	}

	// Every occurrence lands on exactly one side, so the without side's
	// supports are the parent's minus the with side's: no recount pass. A
	// retained parent keeps its own array; otherwise the parent's array is
	// reused in place while the hold fits the cap. On the common lopsided
	// chains the with-subtree is a leaf that returns at once, so only one
	// level's supports are ever held.
	var woCounts []int32
	var held int64
	switch {
	case p.retain:
		woCounts = slices.Clone(counts)
	case p.held+4*int64(len(counts)) <= p.holdCap:
		woCounts, held = counts, 4*int64(len(counts))
	}
	if woCounts != nil {
		for t, c := range withCounts {
			woCounts[t] -= c
		}
	}

	// With-subtree first (preorder), under ignore[a]; the without side keeps
	// the parent's ignore set, exactly like horPartN.
	p.ignore[a] = true
	p.path = append(p.path, a)
	p.held += held
	nd.with, err = p.plan(with, withCounts)
	p.held -= held
	p.path = p.path[:len(p.path)-1]
	p.ignore[a] = false
	if err != nil {
		return nil, err
	}
	if nd.without, err = p.plan(without, woCounts); err != nil {
		return nil, err
	}
	return nd, nil
}
