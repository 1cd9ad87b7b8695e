package core

import (
	"math/rand/v2"
	"slices"
	"sort"

	"disasso/internal/dataset"
	"disasso/internal/par"
)

// refineAlwaysReplan disables the join-plan memoization: every pass re-plans
// every adjacent pair from scratch, exactly as the reference (pre-incremental)
// engine did. The output must be byte-identical either way — the property
// tests compare the two paths. The default comes from the refine_replan build
// tag (see refine_hook_*.go); tests can also flip the variable directly.
var refineAlwaysReplan = refineAlwaysReplanDefault

// leafState is a simple cluster's mutable state during refinement: the
// published cluster (whose term chunk shrinks as refining terms move to
// shared chunks) plus the original records needed to build shared-chunk
// projections.
type leafState struct {
	records []dataset.Record
	cluster *Cluster

	// In-cluster term supports, cached because the records never change
	// while planJoin evaluates the same leaves across many passes and pairs.
	// The cache is built exactly once, before the leaf is shared across
	// concurrent planJoin calls; support is strict about that invariant.
	supTerms  []dataset.Term
	supCounts []int32
	termTotal int // Σ len(r) over records, bounds projection arenas
}

// newLeafState builds a leaf with its support cache lifted straight out of
// the cluster index VERPART already built: the posting-list lengths are the
// in-cluster supports. The index's slices are copied because the caller's
// scratch will reuse them.
func newLeafState(records []dataset.Record, cl *Cluster, ix *clusterIndex) *leafState {
	l := &leafState{records: records, cluster: cl}
	l.supTerms = make([]dataset.Term, len(ix.terms))
	copy(l.supTerms, ix.terms)
	l.supCounts = make([]int32, len(ix.postings))
	for i, p := range ix.postings {
		l.supCounts[i] = int32(len(p))
		l.termTotal += len(p)
	}
	return l
}

// support returns the number of the leaf's records containing t. The cache
// comes from newLeafState: lazily building it here would race when
// concurrent planJoin calls share the leaf, so a missing cache is a bug, not
// a condition to repair.
func (l *leafState) support(t dataset.Term) int {
	if l.supTerms == nil {
		panic("core: leafState.support on a leaf not built by newLeafState; the cache must exist before planJoin shares the leaf across goroutines")
	}
	if i, ok := slices.BinarySearch(l.supTerms, t); ok {
		return int(l.supCounts[i])
	}
	return 0
}

// refNode is a work node of the cluster forest during refinement. Nodes are
// immutable while they sit in the top-level forest: a successful join
// consumes two nodes into a freshly allocated joint (whose leaves' term
// chunks are stripped at that moment) and nothing else ever mutates a node.
// Each node therefore carries a generation stamp and its aggregates —
// descendant leaves, total size, virtual term chunk, record-and-shared term
// domain — computed once at creation instead of being rederived every pass.
type refNode struct {
	leaf     *leafState     // non-nil for leaves
	children []*refNode     // non-nil for joints
	shared   []Chunk        // shared chunks of a joint
	virtTC   dataset.Record // cached virtual term chunk (union over leaves)

	gen       uint32         // generation stamp, unique per node state
	sz        int            // cached total record count over descendant leaves
	leafList  []*leafState   // cached descendant leaves, left to right
	trDomains dataset.Record // cached T^r: record- and shared-chunk domains of the subtree
	supTC     []int32        // per virtTC term: total support over the leaves whose term chunk holds it
}

// newLeafNode wraps a VERPART leaf as a forest node with its aggregates. It
// is REFINE's only initializer: a joint derives its aggregates from its two
// parents in commit. The leaf list is the leaf itself, the virtual term
// chunk a copy of its term chunk (so no aggregate shares memory with the
// published cluster), supTC its in-cluster supports and T^r the union of
// its record-chunk domains.
func newLeafNode(l *leafState) *refNode {
	n := &refNode{leaf: l, sz: l.cluster.Size, leafList: []*leafState{l}}
	n.virtTC = slices.Clone(l.cluster.TermChunk)
	n.refreshSupTC()
	var tr dataset.Record
	for _, c := range l.cluster.RecordChunks {
		tr = append(tr, c.Domain...)
	}
	n.trDomains = tr.Normalize()
	return n
}

// refreshSupTC fills a leaf node's supTC: for each virtTC term, its
// in-cluster support, read off the leaf's support cache in one merge.
func (n *refNode) refreshSupTC() {
	l := n.leaf
	n.supTC = make([]int32, len(n.virtTC))
	k := 0
	for j, t := range n.virtTC {
		for k < len(l.supTerms) && l.supTerms[k] < t {
			k++
		}
		if k < len(l.supTerms) && l.supTerms[k] == t {
			n.supTC[j] = l.supCounts[k]
		}
	}
}

// refineN implements Algorithm REFINE (Section 4) over the VERPART leaves of
// one shard: it repeatedly orders the cluster forest by term-chunk contents
// and joins adjacent pairs whose refining terms satisfy the Equation 1
// criterion, building k^m-anonymous (or, where Property 1 demands,
// k-anonymous) shared chunks, until a fixpoint. Sensitive terms never become
// refining terms: they must stay in term chunks (the l-diversity mode of
// Section 5). It runs over a dense term domain: every term id is below
// nTerms and sensitive is indexed by term id.
//
// Each pass orders the forest and evaluates adjacent pairs, but planJoin is a
// pure function of its two subtrees and surviving nodes are never mutated —
// so verdicts are memoized by the nodes' generation stamps and a pass only
// re-plans pairs where at least one side is new since the verdict was
// recorded. With workers > 1 the not-yet-known pairs of a pass are planned
// concurrently; the subsequent left-to-right commit scan consumes exactly the
// pairs the sequential greedy scan would have, and the shuffle RNG is only
// consumed during the ordered commits, so the output is byte-identical for
// every worker count (and to the always-replan reference path).
func refineN(leaves []*leafState, k, m int, sensitive []bool, rng *rand.Rand, workers, nTerms int) []*refNode {
	e := &refineEngine{
		k: k, m: m, nTerms: nTerms, sensitive: sensitive, workers: workers,
		memo:     !refineAlwaysReplan,
		nilPlans: make(map[uint64]struct{}),
		order:    newOrderScratch(nTerms),
	}
	if workers < 1 {
		workers = 1
	}
	e.scratch = make([]*planScratch, workers)
	nodes := make([]*refNode, len(leaves))
	for i, l := range leaves {
		nodes[i] = newLeafNode(l)
		nodes[i].gen = e.nextGen
		e.nextGen++
	}

	for {
		e.order.order(nodes)

		var plans []*joinPlan
		if e.workers > 1 && len(nodes) > 2 {
			plans = e.planPass(nodes)
		}

		modified := false
		out := e.outBuf[:0]
		i := 0
		for i < len(nodes) {
			if i+1 < len(nodes) {
				var p *joinPlan
				if plans != nil {
					p = plans[i]
				} else {
					p = e.planPair(nodes[i], nodes[i+1], 0)
				}
				if p != nil {
					j := p.commit(&e.scratchFor(0).ixs.chunks, rng)
					j.gen = e.nextGen
					e.nextGen++
					out = append(out, j)
					i += 2
					modified = true
					continue
				}
			}
			out = append(out, nodes[i])
			i++
		}
		// Release this pass's plan pointers: committed plans and the stale
		// tail of the reused buffer would otherwise pin their cloned record
		// sets until the fixpoint ends.
		clear(e.plansBuf)
		e.outBuf = nodes[:0]
		nodes = out
		if !modified {
			return nodes
		}
	}
}

// refineEngine carries the per-call state of one refineN run: the memoized
// join verdicts and the per-worker dense scratch pools.
type refineEngine struct {
	k, m      int
	nTerms    int
	sensitive []bool
	workers   int

	memo    bool
	nextGen uint32
	// nilPlans memoizes the known non-joinable pairs by (genA<<32 | genB).
	// Successful plans are never memoized: a non-nil verdict is always
	// consumed in the pass that computed it (the pair commits, or a
	// neighboring commit consumes one of its nodes), so its key retires
	// immediately and caching the plan would only pin its copied record
	// sets for the rest of the run.
	nilPlans map[uint64]struct{}

	order    *orderScratch
	scratch  []*planScratch
	plansBuf []*joinPlan
	needBuf  []int32
	outBuf   []*refNode
}

func pairKey(a, b *refNode) uint64 {
	return uint64(a.gen)<<32 | uint64(b.gen)
}

func (e *refineEngine) scratchFor(w int) *planScratch {
	if e.scratch[w] == nil {
		e.scratch[w] = newPlanScratch(e.nTerms)
	}
	return e.scratch[w]
}

// planPair returns the join verdict for one adjacent pair, consulting and
// feeding the memo.
func (e *refineEngine) planPair(a, b *refNode, worker int) *joinPlan {
	if !e.memo {
		return e.planJoin(a, b, e.scratchFor(worker))
	}
	key := pairKey(a, b)
	if _, ok := e.nilPlans[key]; ok {
		return nil
	}
	p := e.planJoin(a, b, e.scratchFor(worker))
	if p == nil {
		e.nilPlans[key] = struct{}{}
	}
	return p
}

// planPass speculatively evaluates every adjacent pair of the ordered forest
// concurrently, re-planning only the pairs without a memoized verdict.
func (e *refineEngine) planPass(nodes []*refNode) []*joinPlan {
	if cap(e.plansBuf) < len(nodes)-1 {
		e.plansBuf = make([]*joinPlan, len(nodes)-1)
	}
	plans := e.plansBuf[:len(nodes)-1]
	need := e.needBuf[:0]
	for i := 0; i+1 < len(nodes); i++ {
		plans[i] = nil
		if e.memo {
			if _, ok := e.nilPlans[pairKey(nodes[i], nodes[i+1])]; ok {
				continue
			}
		}
		need = append(need, int32(i))
	}
	e.needBuf = need
	par.DoWorker(e.workers, len(need), func(w, j int) {
		i := need[j]
		plans[i] = e.planJoin(nodes[i], nodes[i+1], e.scratchFor(w))
	})
	if e.memo {
		for _, i := range need {
			if plans[i] == nil {
				e.nilPlans[pairKey(nodes[i], nodes[i+1])] = struct{}{}
			}
		}
	}
	return plans
}

// orderScratch holds the dense state behind order: the term-chunk
// supports and ranks live in flat arrays indexed by term id and every buffer
// is reused across passes.
type orderScratch struct {
	tcs     []int32        // term-chunk support per term id
	touched []dataset.Term // terms with tcs > 0, for sparse reset
	rank    []int32        // global rank per term id
	keys    [][]int32
	keyFlat []int32
	bucket  []int32 // per-rank node buckets (counting sort of key entries)
	cursor  []int32
	start   []int32 // per-tcs bucket starts (rankTerms' counting sort)
	idx     []int
	tmp     []*refNode
}

func newOrderScratch(nTerms int) *orderScratch {
	return &orderScratch{
		tcs:  make([]int32, nTerms),
		rank: make([]int32, nTerms),
	}
}

// order sorts nodes so that clusters sharing frequently-recurring term-chunk
// terms become adjacent: each term gets a term-chunk support tcs(t) (the
// number of virtual term chunks it appears in), terms are ranked by
// descending tcs, and clusters compare lexicographically by their ranked
// term-chunk contents. Empty term chunks sort last.
func (o *orderScratch) order(nodes []*refNode) {
	touched := o.touched[:0]
	totalKey := 0
	for _, n := range nodes {
		totalKey += len(n.virtTC)
		for _, t := range n.virtTC {
			if o.tcs[t] == 0 {
				touched = append(touched, t)
			}
			o.tcs[t]++
		}
	}
	// Global rank: higher tcs first, then smaller term ID.
	o.rankTerms(touched)
	o.touched = touched
	for i, t := range touched {
		o.rank[t] = int32(i)
	}

	// Node keys: each node's virtTC as ascending ranks. Instead of sorting
	// per node, scatter the nodes into per-rank buckets and emit bucket by
	// bucket — two linear passes produce every key already sorted.
	if cap(o.keyFlat) < totalKey {
		o.keyFlat = make([]int32, totalKey+totalKey/2)
		o.bucket = make([]int32, totalKey+totalKey/2)
	}
	flat := o.keyFlat[:totalKey]
	bucket := o.bucket[:totalKey]
	if cap(o.keys) < len(nodes) {
		o.keys = make([][]int32, len(nodes)+len(nodes)/2)
	}
	keys := o.keys[:len(nodes)]
	if cap(o.cursor) < len(touched)+1 {
		o.cursor = make([]int32, len(touched)+len(touched)/2+1)
	}
	cursor := o.cursor[:len(touched)+1]
	pos := int32(0)
	for r, t := range touched {
		cursor[r] = pos
		pos += o.tcs[t]
	}
	cursor[len(touched)] = pos
	for i, n := range nodes {
		for _, t := range n.virtTC {
			r := o.rank[t]
			bucket[cursor[r]] = int32(i)
			cursor[r]++
		}
	}
	// Carve per-node key slices out of flat, then walk the buckets in rank
	// order appending each rank to its nodes' keys.
	used := 0
	for i, n := range nodes {
		keys[i] = flat[used : used : used+len(n.virtTC)]
		used += len(n.virtTC)
	}
	for r := range touched {
		start := cursor[r] - o.tcs[touched[r]]
		for _, i := range bucket[start:cursor[r]] {
			keys[i] = append(keys[i], int32(r))
		}
	}

	if cap(o.idx) < len(nodes) {
		o.idx = make([]int, len(nodes))
	}
	idx := o.idx[:len(nodes)]
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		if len(ka) == 0 || len(kb) == 0 {
			return len(ka) > 0 && len(kb) == 0 // non-empty before empty
		}
		for x := 0; x < len(ka) && x < len(kb); x++ {
			if ka[x] != kb[x] {
				return ka[x] < kb[x]
			}
		}
		return len(ka) < len(kb)
	})
	if cap(o.tmp) < len(nodes) {
		o.tmp = make([]*refNode, len(nodes))
	}
	tmp := o.tmp[:len(nodes)]
	for i, j := range idx {
		tmp[i] = nodes[j]
	}
	copy(nodes, tmp)

	for _, t := range touched {
		o.tcs[t] = 0
	}
}

// rankTerms orders the touched terms (those with tcs > 0) by descending tcs,
// ties toward the smaller id. It counting-sorts them: a bucket per tcs value,
// highest first, filled by one ascending walk over the terms' id span, so
// each bucket comes out id-ascending. That costs O(span + max tcs), where
// the span is at most the domain and the largest tcs at most the key
// entries order already walks.
func (o *orderScratch) rankTerms(touched []dataset.Term) {
	if len(touched) == 0 {
		return
	}
	lo, hi, top := touched[0], touched[0], int32(0)
	for _, t := range touched {
		lo, hi, top = min(lo, t), max(hi, t), max(top, o.tcs[t])
	}
	if cap(o.start) < int(top)+1 {
		o.start = make([]int32, top+1+top/2)
	}
	start := o.start[:top+1]
	clear(start)
	for _, t := range touched {
		start[o.tcs[t]]++
	}
	pos := int32(0)
	for c := top; c > 0; c-- {
		pos, start[c] = pos+start[c], pos
	}
	for t := lo; t <= hi; t++ {
		if c := o.tcs[t]; c > 0 {
			touched[start[c]] = t
			start[c]++
		}
	}
}

// planScratch is one worker's dense scratch for planJoin: per-term tables
// indexed by term id (reset sparsely after each call) and reusable buffers
// for the intermediate term sets. Everything that escapes into a returned
// joinPlan is copied out, so the scratch can be reused immediately.
type planScratch struct {
	totalSup []int32 // total support per term id, zeroed via ts/exList after each plan
	excluded []bool  // Lemma 2 exclusions, cleaned via exList
	exList   []dataset.Term

	ts       dataset.Record
	eff      dataset.Record
	free     dataset.Record
	conflict dataset.Record
	placed   dataset.Record
	remain   dataset.Record
	leftover dataset.Record
	leaves   []*leafState
	contrib  []dataset.Record

	// Arenas for the per-plan term sets: contributions and masked
	// projections are built here and only copied out into the rare plans
	// that succeed, so the (dominant) rejected plans allocate nothing.
	contribArena dataset.Record
	maskedArena  dataset.Record
	masked       []dataset.Record

	ixs *indexScratch
}

func newPlanScratch(nTerms int) *planScratch {
	return &planScratch{
		totalSup: make([]int32, nTerms),
		excluded: make([]bool, nTerms),
		ixs:      newIndexScratch(nTerms),
	}
}

// joinPlan is the outcome of a successful planJoin: everything needed to
// materialize the joint cluster, with the two mutation steps (shuffling the
// shared-chunk subrecords, stripping placed terms from the leaves' term
// chunks) deferred to commit so planning stays pure and parallelizable.
type joinPlan struct {
	a, b    *refNode
	leaves  []*leafState
	contrib []dataset.Record // per leaf, its refining terms (post-exclusion)
	placed  dataset.Record   // terms placed into shared chunks, sorted
	masked  []dataset.Record
	domains []dataset.Record
}

// planJoin evaluates the Equation 1 criterion for joining nodes a and b and,
// if it holds, returns the join plan; otherwise it returns nil. It reads
// only the two nodes' subtrees and mutates nothing but its own scratch.
func (e *refineEngine) planJoin(a, b *refNode, scr *planScratch) *joinPlan {
	// Refining terms: common to the virtual term chunks of both sides,
	// excluding sensitive terms (which must remain disassociated from all
	// subrecords), and eligible: the total support across the two subtrees'
	// term chunks — read off the supTC aggregates, no leaf is touched — must
	// reach k, otherwise no k^m- or k-anonymous shared chunk can host the
	// term. Most rejected pairs die right here, in one merge of the two
	// virtual term chunks.
	ts := scr.ts[:0]
	{
		ra, rb := a.virtTC, b.virtTC
		i, j := 0, 0
		for i < len(ra) && j < len(rb) {
			switch {
			case ra[i] < rb[j]:
				i++
			case ra[i] > rb[j]:
				j++
			default:
				t := ra[i]
				if !e.sensitive[t] {
					if s := a.supTC[i] + b.supTC[j]; int(s) >= e.k {
						ts = append(ts, t)
						scr.totalSup[t] = s
					}
				}
				i, j = i+1, j+1
			}
		}
	}
	scr.ts = ts
	if len(ts) == 0 {
		return nil
	}
	defer func() {
		for _, t := range scr.ts {
			scr.totalSup[t] = 0
		}
		for _, t := range scr.exList {
			scr.totalSup[t] = 0
			scr.excluded[t] = false
		}
		scr.exList = scr.exList[:0]
	}()

	leaves := append(scr.leaves[:0], a.leafList...)
	leaves = append(leaves, b.leafList...)
	scr.leaves = leaves

	// Per-leaf contributions: the refining terms present in that leaf's term
	// chunk. A leaf that would end up with an empty term chunk while failing
	// the Lemma 2 subrecord-count condition retains its least frequent
	// refining term, preserving per-cluster validity (Lemma 3 relies on
	// Lemma 2 holding for each cluster independently).
	chunkTotal := 0
	for _, l := range leaves {
		chunkTotal += len(l.cluster.TermChunk)
	}
	if cap(scr.contribArena) < chunkTotal {
		scr.contribArena = make(dataset.Record, 0, chunkTotal+chunkTotal/2)
	}
	arena := scr.contribArena[:0]
	contrib := scr.contrib[:0]
	for _, l := range leaves {
		start := len(arena)
		arena = intersectAppend(arena, l.cluster.TermChunk, ts)
		contrib = append(contrib, dataset.Record(arena[start:len(arena):len(arena)]))
	}
	scr.contribArena = arena
	scr.contrib = contrib

	// Lemma 2 safety: a refining term moves out of *every* term chunk it
	// appears in (the paper's construction removes all T^s terms from the
	// initial clusters' term chunks), so a term is never simultaneously in a
	// term chunk and a shared chunk. If stripping a leaf's contributions
	// would empty its term chunk while the leaf fails the Lemma 2
	// subrecord-count condition, exclude that leaf's least frequent refining
	// term globally: it stays in term chunks everywhere. Exclusions only
	// enlarge later leaves' remaining term chunks, so one pass suffices.
	for i, l := range leaves {
		if len(contrib[i]) == 0 {
			continue
		}
		eff := scr.eff[:0]
		for _, t := range contrib[i] {
			if !scr.excluded[t] {
				eff = append(eff, t)
			}
		}
		scr.eff = eff
		if len(eff) == 0 {
			continue
		}
		// eff ⊆ contrib[i] ⊆ the leaf's term chunk, so stripping eff empties
		// the chunk iff |eff| = |term chunk|. A leaf may give up its whole
		// term chunk only if its record chunks alone satisfy Lemma 2; a
		// chunk-less cluster must always keep at least one term or its
		// records become unreconstructable.
		if len(eff) == len(l.cluster.TermChunk) &&
			(len(l.cluster.RecordChunks) == 0 || !lemma2Holds(l.cluster, e.k, e.m)) {
			keep := eff[0]
			for _, t := range eff {
				if l.support(t) < l.support(keep) {
					keep = t
				}
			}
			scr.excluded[keep] = true
			scr.exList = append(scr.exList, keep)
		}
	}
	if len(scr.exList) > 0 {
		// Dropping an excluded term from every contribution leaves the other
		// terms' occurrence sets — and so their total supports — unchanged,
		// so totalSup needs no recount.
		for i := range contrib {
			contrib[i] = dropExcluded(contrib[i], scr.excluded)
		}
		ts = dropExcluded(ts, scr.excluded)
		scr.ts = ts
	}
	if len(ts) == 0 {
		return nil
	}

	// Equation 1: join only if publishing the refining terms in shared
	// chunks attributes them to the joint's records at least as precisely as
	// the separate term chunks did.
	left := 0.0
	for _, t := range ts {
		left += float64(scr.totalSup[t])
	}
	left /= float64(a.sz + b.sz)
	uSum, pSum := 0, 0
	for i, l := range leaves {
		if len(contrib[i]) > 0 {
			uSum += len(contrib[i])
			pSum += l.cluster.Size
		}
	}
	if pSum == 0 {
		return nil
	}
	right := float64(uSum) / float64(pSum)
	if left < right {
		return nil
	}

	// Masked records: each record projected onto its own leaf's contribution
	// (CT_j ∩ T^s), so no record contributes the same projection twice. The
	// projections live in the scratch arena until the plan is known to
	// succeed.
	maskedBound := 0
	for i, l := range leaves {
		if len(contrib[i]) > 0 {
			maskedBound += l.termTotal
		}
	}
	if cap(scr.maskedArena) < maskedBound {
		scr.maskedArena = make(dataset.Record, 0, maskedBound+maskedBound/2)
	}
	mArena := scr.maskedArena[:0]
	masked := scr.masked[:0]
	for i, l := range leaves {
		if len(contrib[i]) == 0 {
			continue
		}
		for _, r := range l.records {
			start := len(mArena)
			mArena = intersectAppend(mArena, r, contrib[i])
			masked = append(masked, dataset.Record(mArena[start:len(mArena):len(mArena)]))
		}
	}
	scr.maskedArena = mArena
	scr.masked = masked

	// Property 1: refining terms also present in record/shared chunks of the
	// descendants need plain k-anonymous chunks; the rest need k^m. The
	// subtree domains T^r are cached on the nodes.
	free, conflict := scr.free[:0], scr.conflict[:0]
	for _, t := range ts {
		if a.trDomains.Contains(t) || b.trDomains.Contains(t) {
			conflict = append(conflict, t)
		} else {
			free = append(free, t)
		}
	}
	scr.free, scr.conflict = free, conflict

	// One dense index over the masked records backs every greedy pass of
	// both checker kinds (the passes run strictly one after another). The
	// index comes from the worker-owned scratch, so concurrent planJoin
	// calls never share it.
	ix := scr.ixs.build(masked)
	placed := scr.placed[:0]
	var domains []dataset.Record
	domains = append(domains, greedyDomains(free, scr, func() domainChecker {
		return newKMCheckerOnIndex(e.k, e.m, ix)
	}, &placed)...)
	domains = append(domains, greedyDomains(conflict, scr, func() domainChecker {
		return newKAnonCheckerOnIndex(e.k, ix)
	}, &placed)...)
	scr.placed = placed
	if len(domains) == 0 {
		return nil
	}

	// The plan escapes the scratch: copy the arena-backed sets out.
	return &joinPlan{a: a, b: b,
		leaves:  slices.Clone(leaves),
		contrib: cloneRecords(contrib),
		placed:  dataset.NewRecord(placed...),
		masked:  cloneRecords(masked),
		domains: domains}
}

// unionSupSubtract merges the parents' (virtTC, supTC) aggregates into the
// joint's: the union of the virtual term chunks minus the placed terms, with
// supports of common terms summed.
func unionSupSubtract(a, b *refNode, placed dataset.Record) (dataset.Record, []int32) {
	ra, rb := a.virtTC, b.virtTC
	tc := make(dataset.Record, 0, len(ra)+len(rb))
	sup := make([]int32, 0, len(ra)+len(rb))
	p := 0
	emit := func(t dataset.Term, s int32) {
		for p < len(placed) && placed[p] < t {
			p++
		}
		if p < len(placed) && placed[p] == t {
			return
		}
		tc = append(tc, t)
		sup = append(sup, s)
	}
	i, j := 0, 0
	for i < len(ra) && j < len(rb) {
		switch {
		case ra[i] < rb[j]:
			emit(ra[i], a.supTC[i])
			i++
		case ra[i] > rb[j]:
			emit(rb[j], b.supTC[j])
			j++
		default:
			emit(ra[i], a.supTC[i]+b.supTC[j])
			i, j = i+1, j+1
		}
	}
	for ; i < len(ra); i++ {
		emit(ra[i], a.supTC[i])
	}
	for ; j < len(rb); j++ {
		emit(rb[j], b.supTC[j])
	}
	return tc, sup
}

// intersectAppend appends a ∩ b (both sorted) to dst.
func intersectAppend(dst dataset.Record, a, b dataset.Record) dataset.Record {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i, j = i+1, j+1
		}
	}
	return dst
}

// cloneRecords deep-copies a record list into one flat backing allocation.
func cloneRecords(rs []dataset.Record) []dataset.Record {
	total := 0
	for _, r := range rs {
		total += len(r)
	}
	flat := make(dataset.Record, 0, total)
	out := make([]dataset.Record, len(rs))
	for i, r := range rs {
		start := len(flat)
		flat = append(flat, r...)
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// commit materializes the planned joint node: it builds (and shuffles) the
// shared chunks, removes the placed terms from the leaves' term chunks and
// derives the joint's aggregates from its parents (the only state change the
// join introduces — every other node keeps its cached aggregates). Commits
// run sequentially in scan order, so rng consumption is deterministic, and
// no plan is being computed meanwhile, so cs may be any worker's.
func (p *joinPlan) commit(cs *chunkScratch, rng *rand.Rand) *refNode {
	sharedChunks := buildChunks(p.masked, p.domains, cs, rng)
	for i, l := range p.leaves {
		if len(p.contrib[i]) == 0 || intersectCount(p.contrib[i], p.placed) == 0 {
			continue // nothing placed from this leaf: its term chunk is untouched
		}
		remove := p.contrib[i].Intersect(p.placed)
		l.cluster.TermChunk = l.cluster.TermChunk.Subtract(remove)
	}
	n := &refNode{children: []*refNode{p.a, p.b}, shared: sharedChunks}
	n.sz = p.a.sz + p.b.sz
	n.leafList = make([]*leafState, 0, len(p.a.leafList)+len(p.b.leafList))
	n.leafList = append(append(n.leafList, p.a.leafList...), p.b.leafList...)
	// The placed terms left every term chunk they appeared in, so the joint's
	// virtual term chunk is the parents' union minus them — and for a
	// surviving term the set of leaves holding it is unchanged, so its
	// support aggregate is simply the parents' sum.
	n.virtTC, n.supTC = unionSupSubtract(p.a, p.b, p.placed)
	tr := p.a.trDomains.Union(p.b.trDomains)
	for _, d := range p.domains {
		tr = tr.Union(d)
	}
	n.trDomains = tr
	return n
}

// dropExcluded filters the sorted record in place, dropping excluded terms.
func dropExcluded(r dataset.Record, excluded []bool) dataset.Record {
	out := r[:0]
	for _, t := range r {
		if !excluded[t] {
			out = append(out, t)
		}
	}
	return out
}

// domainChecker abstracts the two incremental chunk checkers so the greedy
// domain construction is shared between the k^m and the k-anonymous cases.
type domainChecker interface {
	TryAdd(t dataset.Term) bool
	Domain() dataset.Record
}

// greedyDomains runs VERPART-style passes over the terms (descending total
// support, from the scratch's dense table), starting a fresh checker per
// chunk, and appends every placed term to placed. Terms that fit nowhere are
// simply not placed.
func greedyDomains(terms dataset.Record, scr *planScratch, newChecker func() domainChecker, placed *dataset.Record) []dataset.Record {
	remain := append(scr.remain[:0], terms...)
	slices.SortFunc(remain, func(x, y dataset.Term) int {
		if scr.totalSup[x] != scr.totalSup[y] {
			return int(scr.totalSup[y]) - int(scr.totalSup[x])
		}
		return int(x) - int(y)
	})
	var domains []dataset.Record
	for len(remain) > 0 {
		checker := newChecker()
		leftover := scr.leftover[:0]
		for _, t := range remain {
			if checker.TryAdd(t) {
				*placed = append(*placed, t)
			} else {
				leftover = append(leftover, t)
			}
		}
		scr.leftover = leftover
		domain := checker.Domain()
		if len(domain) == 0 {
			break // nothing placeable: leave the rest in term chunks
		}
		domains = append(domains, domain)
		remain = append(remain[:0], leftover...)
	}
	scr.remain = remain
	return domains
}
