package core

import (
	"math/rand/v2"
	"slices"

	"disasso/internal/dataset"
)

// Safe disassociation (Awad et al.): repair a published cluster node until
// no cover-problem breach survives, re-verifying k^m-anonymity (and Lemma 2
// where it applies) after every step. Two moves, tried in this order:
//
//   - MERGE: when the learned term and its witness anchor sit in two record
//     chunks of the same leaf, merging the chunks discloses the association
//     openly — the pair stops being an inference and becomes published fact.
//     The merge is committed only if the merged chunk (re-projected from the
//     leaf's original records) is still k^m-anonymous and the leaf still
//     satisfies Lemma 2, so the publication's guarantee never weakens.
//
//   - DEMOTE: otherwise the heavy term moves to the term chunk(s). A term
//     chunk hides multiplicity, so a demoted term associates with any one
//     record with probability 1/|P| ≤ 1/k (MergeUndersized guarantees
//     |P| ≥ k) — demotion always ends the breach, at some utility cost.
//     Demoting from a shared chunk (or from a record chunk when the term
//     also rides a shared chunk) strips the term from every shared chunk of
//     the node and re-discloses it in the term chunk of each leaf whose
//     original records hold it, preserving the per-leaf term sets and the
//     verifier's invariant that shared-chunk domains stay disjoint from
//     descendant term chunks.
//
// Termination: a merge reduces the record-chunk count and never adds a
// record- or shared-chunk term occurrence; a demote removes at least one
// such occurrence and never adds any. The sum (occurrences + chunks)
// strictly decreases every step, and a node whose record and shared chunks
// carry no heavy term has no breach, so the loop reaches a breach-free
// fixpoint. Demoted terms cannot re-breach: term-chunk terms are never
// heavy.
//
// The pass mutates only the published node (fresh pipeline-owned
// allocations) and consumes randomness only when a merge shuffles the
// merged subrecords, so repairing an already-breach-free node is a no-op
// that leaves the PRNG stream untouched — repair is idempotent and
// deterministic for a fixed node and seed, independent of worker counts.
//
// Each step repairs the breach NodeBreaches would list first. The reference
// loop finds it by rebuilding every source of the node and re-detecting
// every breach, O(node) per step; the production engine (repairState)
// builds the sources once per node and refreshes only the ones a step
// touched, and both must publish byte-identical forests.

// safeRepairRescan routes repair through the reference whole-node rescan
// loop instead of the incremental repair state. The default comes from the
// saferepair_rescan build tag (see saferepair_hook_*.go); tests flip it
// through UseSafeRepairRescan.
var safeRepairRescan = safeRepairRescanDefault

// UseSafeRepairRescan selects the reference whole-node rescan (on) or the
// incremental engine (off) for safe repair and returns a function restoring
// the previous choice. The two must publish byte-identical forests; the
// breach package's property tests and fuzzer use this to compare them in
// one build. It must not be called while an anonymization is running.
func UseSafeRepairRescan(on bool) (restore func()) {
	prev := safeRepairRescan
	safeRepairRescan = on
	return func() { safeRepairRescan = prev }
}

// repairNode repairs one top-level published node in place until
// NodeBreaches(n, k) is empty. originals yields each leaf's original
// records (dense ids, the same id space as the node), needed to re-project
// merged chunks and to re-disclose demoted shared terms. Returns the number
// of repair steps taken.
func repairNode(n *ClusterNode, originals func(*Cluster) []dataset.Record, k, m int, rng *rand.Rand) int {
	if safeRepairRescan {
		return repairNodeRescan(n, originals, k, m, rng)
	}
	st := newRepairState(n, originals, k)
	guard := repairSlack
	for gi := range st.groups {
		guard += repairWeight(st.groups[gi].srcs)
	}
	steps := 0
	for {
		if checkRepairStep != nil {
			checkRepairStep(st, n)
		}
		b, ok := st.next()
		if !ok {
			return steps
		}
		steps++
		if steps > guard {
			panic(repairStalled)
		}
		g := &st.groups[b.g]
		l, an := &g.srcs[b.src], &st.groups[b.ag].srcs[b.asrc]
		if l.kind == srcRecordChunk && an.kind == srcRecordChunk && b.ag == b.g {
			cl := g.node.Simple
			if tryMergeChunks(cl, l.chunk, an.chunk, originals(cl), k, m, rng) {
				st.refreshLeaf(b.g)
				continue
			}
		}
		st.demote(b.g, b.src, b.learned)
	}
}

// checkRepairStep, when set, sees the repair state and its node before every
// incremental step. Tests use it to hold the state to a full rebuild; it is
// nil otherwise.
var checkRepairStep func(st *repairState, root *ClusterNode)

// repairStalled is the panic message of a repair that overran its step budget.
// The potential argument above bounds steps by occurrences+chunks; exceeding
// the budget means a step failed to make progress, which is a bug worth
// crashing loudly over (the fuzzer hunts for it).
const repairStalled = "core: safe-disassociation repair failed to converge"

// repairSlack and repairWeight bound the repair steps of a node: every step
// removes a chunk or a term occurrence, so occurrences + chunks (plus slack)
// can never be exceeded by a correct repair.
const repairSlack = 8

func repairWeight(srcs []breachSrc) int {
	total := 0
	for _, src := range srcs {
		if src.kind != srcTermChunk {
			total += 1 + len(src.terms)
		}
	}
	return total
}

// repairState is the incremental engine's view of one top-level node: its
// association sources grouped by the tree node that owns them, built once
// and refreshed in place, one group at a time, as steps touch them. Two
// invariants let it find the rescan's next breach without the rescan:
//
//   - groups sit in canonical post-order, so walking groups, then each
//     group's sources, lists sources exactly as collectSources does;
//   - slot ranges follow the in-order leaf layout, so two sources overlap
//     only when one's node is the other's, an ancestor of it or a
//     descendant of it. An anchor search therefore visits the learned
//     source's own subtree and its ancestors, never the whole node.
type repairState struct {
	k         int
	originals func(*Cluster) []dataset.Record
	groups    []repairGroup
	// shared holds every term some shared chunk of the node carries. Repair
	// never adds a shared-chunk term, so the set only shrinks.
	shared dataset.Record
	// holders lists, per term of shared, the groups a shared demotion of the
	// term touches, ascending: the joints whose shared chunks carry it and
	// the leaves whose original records hold it. Term t's groups are
	// holders[holderOff[t]:holderOff[t+1]]. It is built on the node's first
	// shared demotion and stays exact for every term still in shared:
	// originals never change, and a shared term leaves the shared chunks
	// only all at once, by its own demotion.
	holderOff []int32
	holders   []int32
}

// repairGroup is one tree node of the repaired node with the sources it owns.
type repairGroup struct {
	node    *ClusterNode
	parent  int // group index of the parent joint; -1 at the top
	first   int // group index of the first node of this node's subtree
	leafIdx int // a leaf's in-order position
	lo, n   int // covered slot range [lo, lo+n)
	srcs    []breachSrc
	heavy   []heavyTerm // the terms with k·s > n: the only ones that can breach
}

// heavyTerm addresses terms[term] of srcs[src] within its group.
type heavyTerm struct{ src, term int }

// repairSite is the breach a step repairs: a learned term of one source
// and its witness anchor's source, both addressed as (group, position).
type repairSite struct {
	g, src   int
	ag, asrc int
	learned  dataset.Term
	num, den int
}

// newRepairState groups the sources of root by node, in post-order.
func newRepairState(root *ClusterNode, originals func(*Cluster) []dataset.Record, k int) *repairState {
	st := &repairState{k: k, originals: originals}
	var shared []dataset.Term
	leafIdx := 0
	var walk func(n *ClusterNode, lo int) int
	walk = func(n *ClusterNode, lo int) int {
		g := repairGroup{node: n, parent: -1, first: len(st.groups), lo: lo}
		if n.IsLeaf() {
			g.leafIdx, g.n = leafIdx, n.Simple.Size
			leafIdx++
		} else {
			end := lo
			for _, c := range n.Children {
				end = walk(c, end)
			}
			g.n = end - lo
			for _, c := range n.SharedChunks {
				shared = append(shared, c.Domain...)
			}
		}
		g.srcs = nodeSources(nil, n, g.leafIdx, lo, g.n)
		gi := len(st.groups)
		st.groups = append(st.groups, g)
		// In post-order the last child sits just before its parent and each
		// earlier child just before the first group of its next sibling.
		for ci := gi - 1; ci >= g.first; ci = st.groups[ci].first - 1 {
			st.groups[ci].parent = gi
		}
		st.findHeavy(gi)
		return lo + g.n
	}
	walk(root, 0)
	st.shared = dataset.NewRecord(shared...)
	return st
}

// findHeavy recomputes group gi's heavy terms.
func (st *repairState) findHeavy(gi int) {
	g := &st.groups[gi]
	g.heavy = g.heavy[:0]
	for si := range g.srcs {
		for ti, s := range g.srcs[si].sup {
			if st.k*s > g.n {
				g.heavy = append(g.heavy, heavyTerm{si, ti})
			}
		}
	}
}

// refreshLeaf rebuilds the sources of leaf group gi after its chunks changed.
func (st *repairState) refreshLeaf(gi int) {
	g := &st.groups[gi]
	g.srcs = nodeSources(g.srcs[:0], g.node, g.leafIdx, g.lo, g.n)
	st.findHeavy(gi)
}

// next returns the breach detectBreaches would sort first — highest
// probability, then canonical source, then learned term — from one pass
// over the heavy terms, or false when the node is breach-free.
func (st *repairState) next() (repairSite, bool) {
	var best repairSite
	found := false
	for gi := range st.groups {
		g := &st.groups[gi]
		for _, h := range g.heavy {
			s := g.srcs[h.src].sup[h.term]
			// s/n bounds the term's probability under any anchor, and the
			// pass runs in canonical order, so a tie never displaces best.
			if found && s*best.den <= best.num*g.n {
				continue
			}
			a := g.srcs[h.src].terms[h.term]
			ag, asrc, eff, ok := st.findAnchor(gi, h.src, a, s)
			if !ok || (found && s*best.den <= best.num*eff) {
				continue
			}
			best = repairSite{g: gi, src: h.src, ag: ag, asrc: asrc, learned: a, num: s, den: eff}
			found = true
		}
	}
	return best, found
}

// findAnchor is findAnchor over the groups: the overlapping source that
// dilutes the heavy term a (support s, of source si in group gi) least, ties
// broken by canonical order, with its effective range.
func (st *repairState) findAnchor(gi, si int, a dataset.Term, s int) (ag, asrc, eff int, ok bool) {
	g := &st.groups[gi]
	l := &g.srcs[si]
	// The own subtree comes first in canonical order, and every overlapping
	// source in it covers at most l's range, so dilutes to l.n, the least
	// any anchor can: the first one with an anchor term wins.
	for hi := g.first; hi <= gi; hi++ {
		for hj := range st.groups[hi].srcs {
			src := &st.groups[hi].srcs[hj]
			if (hi == gi && hj == si) || !l.overlaps(src) {
				continue
			}
			if _, found := anchorTermIn(src, a); found {
				return hi, hj, l.n, true
			}
		}
	}
	// Ancestors follow in canonical order, nearest first, and their ranges
	// only grow: the first one with an anchor term dilutes least, and once
	// the threshold fails no higher one can pass it.
	for hi := g.parent; hi >= 0; hi = st.groups[hi].parent {
		h := &st.groups[hi]
		eff := max(l.n, h.n)
		if st.k*s <= eff {
			break
		}
		for hj := range h.srcs {
			src := &h.srcs[hj]
			if !l.overlaps(src) {
				continue
			}
			if _, found := anchorTermIn(src, a); found {
				return hi, hj, eff, true
			}
		}
	}
	return 0, 0, 0, false
}

// demote is demoteTerm on the repair state. It makes the same change, but
// answers "is a shared anywhere?" from the shared-term set, and it visits
// only the groups the change touches: the demoting leaf, then a's holders —
// the joints a is stripped from and the leaves a may be re-disclosed to.
func (st *repairState) demote(gi, si int, a dataset.Term) {
	g := &st.groups[gi]
	l := &g.srcs[si]
	needShared := l.kind == srcShared
	if l.kind == srcRecordChunk {
		demoteRecordTerm(g.node.Simple, l.chunk, a)
		st.refreshLeaf(gi)
		needShared = st.shared.Contains(a)
	}
	if !needShared {
		return
	}
	if st.holderOff == nil {
		st.indexHolders()
	}
	if checkSharedDemotion != nil {
		checkSharedDemotion(st, a)
	}
	i, _ := slices.BinarySearch(st.shared, a)
	st.shared = slices.Delete(st.shared, i, i+1)
	for _, hi := range st.holdersOf(a) {
		h := &st.groups[hi]
		if !h.node.IsLeaf() {
			st.stripShared(int(hi), a)
		} else if !publishesTerm(h.node.Simple, a) {
			st.disclose(int(hi), a)
		}
	}
}

// checkSharedDemotion, when set, sees the repair state before every shared
// demotion, with the holder index built and the term a still shared. Tests
// use it to hold the index to a scan of every group; it is nil otherwise.
var checkSharedDemotion func(st *repairState, a dataset.Term)

// holdersOf returns the holder groups of a, a term of st.shared.
func (st *repairState) holdersOf(a dataset.Term) []int32 {
	return st.holders[st.holderOff[a]:st.holderOff[a+1]]
}

// indexHolders builds the holder index over the terms of st.shared in one
// walk of the groups: every (term, group) pair is collected once, in group
// order, then scattered into per-term runs by a counting sort, which keeps
// each run ascending. Terms are the shard's dense ids, so st.shared's last
// term bounds the tables.
func (st *repairState) indexHolders() {
	span := int(st.shared[len(st.shared)-1]) + 1
	// seen[t] is 0 for a term outside st.shared and otherwise one more than
	// the last group that listed t, so a group lists each term once.
	seen := make([]int32, span)
	for _, t := range st.shared {
		seen[t] = -1
	}
	off := make([]int32, span+1)
	type pair struct{ t, g int32 }
	var pairs []pair
	add := func(r dataset.Record, gi int32) {
		for _, t := range r {
			if int(t) < span && seen[t] != 0 && seen[t] != gi+1 {
				seen[t] = gi + 1
				off[t+1]++
				pairs = append(pairs, pair{int32(t), gi})
			}
		}
	}
	for gi := range st.groups {
		n := st.groups[gi].node
		if !n.IsLeaf() {
			for ci := range n.SharedChunks {
				add(n.SharedChunks[ci].Domain, int32(gi))
			}
			continue
		}
		for _, r := range st.originals(n.Simple) {
			add(r, int32(gi))
		}
	}
	for t := 1; t <= span; t++ {
		off[t] += off[t-1]
	}
	st.holders = make([]int32, len(pairs))
	next := seen // reused: the write position of each term's run
	copy(next, off[:span])
	for _, p := range pairs {
		st.holders[next[p.t]] = p.g
		next[p.t]++
	}
	st.holderOff = off
}

// disclose re-discloses a in leaf group gi's term chunk. Its record chunks
// are unchanged, so only the term-chunk source is updated, not recounted.
func (st *repairState) disclose(gi int, a dataset.Term) {
	g := &st.groups[gi]
	cl := g.node.Simple
	cl.TermChunk = insertTerm(cl.TermChunk, a)
	if last := len(g.srcs) - 1; last >= 0 && g.srcs[last].kind == srcTermChunk {
		src := &g.srcs[last]
		src.terms, src.sup = cl.TermChunk, append(src.sup, 1)
	} else {
		g.srcs = append(g.srcs, termChunkSource(cl, g.leafIdx, g.lo, g.n))
	}
	st.findHeavy(gi)
}

// stripShared removes a from the shared chunks of joint group gi, dropping
// chunks that empty. Stripping a term leaves every other term's support as
// it was, so each affected source just loses one support entry.
func (st *repairState) stripShared(gi int, a dataset.Term) {
	g := &st.groups[gi]
	// A joint's sources are its shared chunks, one each and in order, so one
	// walk strips the chunks and their sources together.
	chunks, srcs := g.node.SharedChunks[:0], g.srcs[:0]
	for ci, src := range g.srcs {
		c := g.node.SharedChunks[ci]
		if i, ok := slices.BinarySearch(src.terms, a); ok {
			if stripChunkTerm(&c, a) {
				continue // the chunk emptied and is gone
			}
			src.sup = slices.Delete(src.sup, i, i+1)
		}
		src.chunk, src.terms = len(chunks), c.Domain
		chunks, srcs = append(chunks, c), append(srcs, src)
	}
	g.node.SharedChunks, g.srcs = chunks, srcs
	st.findHeavy(gi)
}

// repairNodeRescan is the reference repair loop: every step rebuilds every
// source of the node, re-detects and sorts every breach and repairs the
// first. It is O(node) per step; repairNode's incremental engine must
// reproduce its forests byte for byte.
func repairNodeRescan(n *ClusterNode, originals func(*Cluster) []dataset.Record, k, m int, rng *rand.Rand) int {
	steps := 0
	guard := repairSlack + repairWeight(collectSources(n))
	for {
		srcs := collectSources(n)
		sites := detectBreaches(srcs, k)
		if len(sites) == 0 {
			return steps
		}
		steps++
		if steps > guard {
			panic(repairStalled)
		}
		b := sites[0]
		l, an := &srcs[b.src], &srcs[b.anchor]
		if l.kind == srcRecordChunk && an.kind == srcRecordChunk && l.leaf == an.leaf {
			if tryMergeChunks(l.leaf, l.chunk, an.chunk, originals(l.leaf), k, m, rng) {
				continue
			}
		}
		demoteTerm(n, l, b.Learned, originals)
	}
}

// tryMergeChunks replaces record chunks i and j of the leaf with their
// union, re-projected from the original records, iff the merged chunk is
// still k^m-anonymous and the leaf still satisfies Lemma 2 (which only
// binds while the term chunk is empty). The merged subrecords are shuffled
// like every published chunk's.
func tryMergeChunks(cl *Cluster, i, j int, records []dataset.Record, k, m int, rng *rand.Rand) bool {
	dom := cl.RecordChunks[i].Domain.Union(cl.RecordChunks[j].Domain)
	subs := make([]dataset.Record, 0, len(records))
	for _, r := range records {
		if p := r.Intersect(dom); len(p) > 0 {
			subs = append(subs, p)
		}
	}
	if !IsChunkKMAnonymous(dom, subs, k, m) {
		return false
	}
	merged := Chunk{Domain: dom, Subrecords: subs}
	if len(cl.TermChunk) == 0 {
		trial := Cluster{Size: cl.Size, RecordChunks: make([]Chunk, 0, len(cl.RecordChunks)-1)}
		for ci := range cl.RecordChunks {
			if ci != i && ci != j {
				trial.RecordChunks = append(trial.RecordChunks, cl.RecordChunks[ci])
			}
		}
		trial.RecordChunks = append(trial.RecordChunks, merged)
		if !lemma2Holds(&trial, k, m) {
			return false
		}
	}
	rng.Shuffle(len(subs), func(x, y int) { subs[x], subs[y] = subs[y], subs[x] })
	lo, hi := min(i, j), max(i, j)
	cl.RecordChunks[lo] = merged
	cl.RecordChunks = append(cl.RecordChunks[:hi], cl.RecordChunks[hi+1:]...)
	return true
}

// stripChunkTerm removes a from the chunk's domain and subrecords, dropping
// projections that become empty; reports whether the domain is now empty
// (the chunk should be removed entirely).
func stripChunkTerm(c *Chunk, a dataset.Term) (empty bool) {
	c.Domain = c.Domain.Subtract(dataset.Record{a})
	subs := c.Subrecords[:0]
	for _, sr := range c.Subrecords {
		if sr.Contains(a) {
			sr = sr.Subtract(dataset.Record{a})
		}
		if len(sr) > 0 {
			subs = append(subs, sr)
		}
	}
	c.Subrecords = subs
	return len(c.Domain) == 0
}

// stripChunks removes a from every chunk of the slice, dropping chunks
// whose domain empties; reports whether anything changed.
func stripChunks(chunks []Chunk, a dataset.Term) ([]Chunk, bool) {
	changed := false
	out := chunks[:0]
	for ci := range chunks {
		c := chunks[ci]
		if !c.Domain.Contains(a) {
			out = append(out, c)
			continue
		}
		changed = true
		if !stripChunkTerm(&c, a) {
			out = append(out, c)
		}
	}
	return out, changed
}

// demoteRecordTerm moves a from record chunk ci of cl, which it empties
// away if a was its last term, to cl's term chunk.
func demoteRecordTerm(cl *Cluster, ci int, a dataset.Term) {
	if stripChunkTerm(&cl.RecordChunks[ci], a) {
		cl.RecordChunks = append(cl.RecordChunks[:ci], cl.RecordChunks[ci+1:]...)
	}
	cl.TermChunk = insertTerm(cl.TermChunk, a)
}

// publishesTerm reports whether a chunk of the leaf itself, record or term,
// carries a.
func publishesTerm(cl *Cluster, a dataset.Term) bool {
	if cl.TermChunk.Contains(a) {
		return true
	}
	for ci := range cl.RecordChunks {
		if cl.RecordChunks[ci].Domain.Contains(a) {
			return true
		}
	}
	return false
}

// demoteTerm moves the heavy term a out of its source l into term chunks.
// For a record-chunk source the term moves to that leaf's term chunk; if a
// also appears in any shared chunk (or the source itself is shared), a is
// stripped from every shared chunk of the node and re-disclosed in the term
// chunk of each leaf whose original records contain it — keeping every
// leaf's term set intact and no shared-chunk domain overlapping a
// descendant term chunk.
func demoteTerm(root *ClusterNode, l *breachSrc, a dataset.Term, originals func(*Cluster) []dataset.Record) {
	needShared := l.kind == srcShared
	if l.kind == srcRecordChunk {
		demoteRecordTerm(l.leaf, l.chunk, a)
		root.Walk(func(n *ClusterNode) {
			if !n.IsLeaf() {
				for ci := range n.SharedChunks {
					if n.SharedChunks[ci].Domain.Contains(a) {
						needShared = true
					}
				}
			}
		})
	}
	if !needShared {
		return
	}
	root.Walk(func(n *ClusterNode) {
		if !n.IsLeaf() {
			n.SharedChunks, _ = stripChunks(n.SharedChunks, a)
		}
	})
	// Re-disclose: every leaf whose originals hold a must still publish it
	// somewhere; with every shared occurrence gone, that is its term chunk
	// unless a record chunk of the leaf already carries the term.
	root.Walk(func(n *ClusterNode) {
		if !n.IsLeaf() || publishesTerm(n.Simple, a) {
			return
		}
		cl := n.Simple
		for _, r := range originals(cl) {
			if r.Contains(a) {
				cl.TermChunk = insertTerm(cl.TermChunk, a)
				return
			}
		}
	})
}
