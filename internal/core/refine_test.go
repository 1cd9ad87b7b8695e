package core

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"disasso/internal/dataset"
)

// testLeaf runs VERPART over one cluster's records and wraps the result as
// REFINE's leaf the way RunShard does, with the in-cluster supports lifted
// out of a cluster index over the records.
func testLeaf(records []dataset.Record, k, m int, sensitive map[dataset.Term]bool, rng *rand.Rand) *leafState {
	cl := VerPart(records, k, m, sensitive, rng)
	return newLeafState(records, cl, buildClusterIndex(records))
}

// testJoin plans the pair on a one-worker engine over terms below nTerms
// and commits the plan, as one step of refineN's scan does; it returns nil
// when the pair does not join.
func testJoin(a, b *refNode, k, m, nTerms int, rng *rand.Rand) *refNode {
	e := &refineEngine{k: k, m: m, nTerms: nTerms, sensitive: make([]bool, nTerms),
		scratch: make([]*planScratch, 1)}
	p := e.planJoin(a, b, e.scratchFor(0))
	if p == nil {
		return nil
	}
	return p.commit(&e.scratchFor(0).ixs.chunks, rng)
}

// figure2Leaves builds the leafStates of the paper's clusters P1 and P2
// after VERPART, as in Figure 2b.
func figure2Leaves(t *testing.T) []*leafState {
	t.Helper()
	return []*leafState{
		testLeaf(figure2P1(), 3, 2, nil, testRNG()),
		testLeaf(figure2P2(), 3, 2, nil, testRNG()),
	}
}

// figure2Terms bounds the running example's term ids.
const figure2Terms = int(playboy) + 1

func TestTryJoinFigure3(t *testing.T) {
	// Joining P1 and P2 must produce the joint cluster of Figure 3: one
	// shared chunk over {ikea, ruby}, with viagra left in P1's term chunk
	// and panic disorder + playboy in P2's.
	leaves := figure2Leaves(t)
	a, b := newLeafNode(leaves[0]), newLeafNode(leaves[1])

	j := testJoin(a, b, 3, 2, figure2Terms, testRNG())
	if j == nil {
		t.Fatal("Equation 1 holds ((4+4)/10 ≥ (2+2)/10) but join was rejected")
	}
	if len(j.shared) != 1 {
		t.Fatalf("got %d shared chunks, want 1", len(j.shared))
	}
	sc := j.shared[0]
	if !sc.Domain.Equal(dataset.NewRecord(ikea, ruby)) {
		t.Errorf("shared chunk domain = %v, want {ikea, ruby}", sc.Domain)
	}
	// Figure 3 lists five non-empty shared subrecords: {ikea,ruby}×3 (r1,
	// r7, r10), {ruby} (r2), {ikea} (r3).
	counts := make(map[string]int)
	for _, sr := range sc.Subrecords {
		counts[sr.Key()]++
	}
	if counts[dataset.NewRecord(ikea, ruby).Key()] != 3 ||
		counts[dataset.NewRecord(ruby).Key()] != 1 ||
		counts[dataset.NewRecord(ikea).Key()] != 1 {
		t.Errorf("shared subrecord multiset = %v", counts)
	}
	if !leaves[0].cluster.TermChunk.Equal(dataset.NewRecord(viagra)) {
		t.Errorf("P1 term chunk after join = %v, want {viagra}", leaves[0].cluster.TermChunk)
	}
	if !leaves[1].cluster.TermChunk.Equal(dataset.NewRecord(panicDis, playboy)) {
		t.Errorf("P2 term chunk after join = %v", leaves[1].cluster.TermChunk)
	}
	if !IsChunkKMAnonymous(sc.Domain, sc.Subrecords, 3, 2) {
		t.Error("shared chunk not 3^2-anonymous")
	}
}

func TestTryJoinNoCommonTerms(t *testing.T) {
	mk := func(records []dataset.Record) *refNode {
		return newLeafNode(testLeaf(records, 3, 2, nil, testRNG()))
	}
	a := mk([]dataset.Record{
		dataset.NewRecord(1, 10), dataset.NewRecord(1), dataset.NewRecord(1), dataset.NewRecord(1),
	})
	b := mk([]dataset.Record{
		dataset.NewRecord(2, 20), dataset.NewRecord(2), dataset.NewRecord(2), dataset.NewRecord(2),
	})
	if testJoin(a, b, 3, 2, 21, testRNG()) != nil {
		t.Error("join without common term-chunk terms must be rejected")
	}
}

func TestTryJoinInsufficientSupport(t *testing.T) {
	// Term 9 is in both term chunks but has total support 2 < k=3: no
	// k^m-anonymous shared chunk can host it, so the join must fail.
	mk := func(records []dataset.Record) *refNode {
		return newLeafNode(testLeaf(records, 3, 2, nil, testRNG()))
	}
	a := mk([]dataset.Record{
		dataset.NewRecord(1, 9), dataset.NewRecord(1), dataset.NewRecord(1),
	})
	b := mk([]dataset.Record{
		dataset.NewRecord(2, 9), dataset.NewRecord(2), dataset.NewRecord(2),
	})
	if !a.virtTC.Contains(9) || !b.virtTC.Contains(9) {
		t.Fatal("fixture broken: 9 must be in both term chunks")
	}
	if testJoin(a, b, 3, 2, 10, testRNG()) != nil {
		t.Error("join with only sub-k refining terms must be rejected")
	}
}

func TestRefineFigure2EndToEnd(t *testing.T) {
	out := refineN(figure2Leaves(t), 3, 2, make([]bool, figure2Terms), testRNG(), 1, figure2Terms)
	if len(out) != 1 {
		t.Fatalf("refine left %d nodes, want 1 joint", len(out))
	}
	if out[0].leaf != nil {
		t.Fatal("result should be a joint node")
	}
	if len(out[0].children) != 2 {
		t.Fatalf("joint has %d children", len(out[0].children))
	}
}

func TestRefineFixpointWithoutJoinableClusters(t *testing.T) {
	// Clusters with disjoint term chunks never join; refine must terminate
	// and return them unchanged.
	var leaves []*leafState
	for i := 0; i < 4; i++ {
		base := dataset.Term(i * 100)
		leaves = append(leaves, testLeaf([]dataset.Record{
			dataset.NewRecord(base, base+50),
			dataset.NewRecord(base),
			dataset.NewRecord(base),
		}, 3, 2, nil, testRNG()))
	}
	const nTerms = 351
	out := refineN(leaves, 3, 2, make([]bool, nTerms), testRNG(), 1, nTerms)
	if len(out) != 4 {
		t.Errorf("refine changed the forest: %d nodes", len(out))
	}
	for _, n := range out {
		if n.leaf == nil {
			t.Error("unexpected joint node")
		}
	}
}

// TestRefinePropertyOneConflict drives Property 1's k-anonymous case
// through planJoin and commit. Terms 7 and 8 sit in a record chunk of leaf A
// and in the term chunks of leaves B and C. Joining A with B over term 1
// leaves 7 and 8 in the joint's virtual term chunk and puts them in its T^r;
// joining that joint with C then refines 7 and 8, so every shared chunk over
// them meets T^r and must be k-anonymous, not only k^m-anonymous. Over the
// masked records {7}×3, {8}×3 and {7,8} one chunk {7, 8} would break that
// ({7,8} occurs once), so the check must split them.
func TestRefinePropertyOneConflict(t *testing.T) {
	const k, m, nTerms = 3, 2, 10
	r := dataset.NewRecord
	mkLeaf := func(records ...dataset.Record) *refNode {
		return newLeafNode(testLeaf(records, k, m, nil, testRNG()))
	}
	// A: 7 and 8 frequent → record chunk {7, 8}; 1 and 9 in its term chunk.
	a := mkLeaf(r(7, 8, 1), r(7, 8, 1), r(7, 8), r(7, 9), r(8))
	// B: 1, 4, 7 and 8 infrequent → term chunk; 5 → record chunk.
	b := mkLeaf(r(1, 7), r(1, 7), r(5, 8), r(5, 8), r(5, 4))
	// C: 2, 7 and 8 infrequent → term chunk; 6 → record chunk.
	c := mkLeaf(r(6, 7, 8), r(6, 7), r(6, 8), r(2), r(6))
	if !a.trDomains.Contains(7) || !a.trDomains.Contains(8) ||
		!b.virtTC.Contains(7) || !b.virtTC.Contains(8) || !c.virtTC.Contains(7) || !c.virtTC.Contains(8) {
		t.Fatalf("fixture broken: A's T^r %v, B's term chunk %v, C's term chunk %v", a.trDomains, b.virtTC, c.virtTC)
	}

	// A+B refines term 1 only ((2+2)/10 ≥ (1+1)/10).
	ab := testJoin(a, b, k, m, nTerms, testRNG())
	if ab == nil {
		t.Fatal("A+B join rejected")
	}
	// (A+B)+C refines 7 and 8 ((4+4)/15 ≥ (2+2)/10), both in T^r via A.
	j := testJoin(ab, c, k, m, nTerms, testRNG())
	if j == nil {
		t.Fatal("(A+B)+C join rejected")
	}
	tr := deriveAggregates(ab).trDomains.Union(deriveAggregates(c).trDomains)
	met := 0
	for _, sc := range j.shared {
		if len(sc.Domain.Intersect(tr)) == 0 {
			continue
		}
		met++
		if !IsChunkKAnonymous(sc.Domain, sc.Subrecords, k) {
			t.Errorf("shared chunk %v meets T^r but is not %d-anonymous: %v", sc.Domain, k, sc.Subrecords)
		}
	}
	if met != 2 {
		t.Errorf("%d shared chunks meet T^r, want 2 ({7} and {8}): %v", met, j.shared)
	}
}

func TestTryJoinKeepsChunklessClustersAlive(t *testing.T) {
	// Regression: two clusters smaller than k have no record chunks, only
	// term chunks {x, y}. Joining them moves both terms into shared chunks
	// (total supports reach k) — but each leaf must retain at least one
	// term, or its records become unreconstructable.
	x, y := dataset.Term(1), dataset.Term(2)
	mk := func(records []dataset.Record) *refNode {
		l := testLeaf(records, 5, 2, nil, testRNG())
		if len(l.cluster.RecordChunks) != 0 {
			t.Fatal("fixture broken: expected no record chunks")
		}
		return newLeafNode(l)
	}
	a := mk([]dataset.Record{
		dataset.NewRecord(x, y), dataset.NewRecord(x, y), dataset.NewRecord(x),
	})
	b := mk([]dataset.Record{
		dataset.NewRecord(x, y), dataset.NewRecord(x, y), dataset.NewRecord(y),
	})
	j := testJoin(a, b, 5, 2, 3, testRNG())
	if j == nil {
		t.Skip("join rejected — Lemma 2 retention path not exercised")
	}
	for _, l := range j.leafList {
		if len(l.cluster.RecordChunks) == 0 && len(l.cluster.TermChunk) == 0 {
			t.Fatal("join left a cluster with no chunks and no term chunk")
		}
	}
}

func TestOrderByTermChunksGroupsSharers(t *testing.T) {
	// order reads only the nodes' virtual term chunks.
	mk := func(termChunk ...dataset.Term) *refNode {
		return &refNode{virtTC: dataset.NewRecord(termChunk...)}
	}
	// Terms 1 and 2 each appear in two term chunks; nodes sharing them must
	// become adjacent.
	nodes := []*refNode{mk(1, 5), mk(3), mk(1, 6), mk(2, 7), mk(2)}
	newOrderScratch(8).order(nodes)
	pos := make(map[dataset.Term][]int)
	for i, n := range nodes {
		for _, term := range n.virtTC {
			pos[term] = append(pos[term], i)
		}
	}
	for _, term := range []dataset.Term{1, 2} {
		p := pos[term]
		if len(p) == 2 && p[1]-p[0] != 1 {
			t.Errorf("clusters sharing term %d are at positions %v, not adjacent", term, p)
		}
	}
}

// TestRankTermsMatchesComparator: the counting-sort ranks must equal the
// comparison sort on (tcs descending, id ascending) over random tcs tables
// full of ties, dense and sparse over the domain.
func TestRankTermsMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 13))
	const nTerms = 2_000
	o := newOrderScratch(nTerms)
	for trial := range 300 {
		// A dense trial touches most terms of a narrow id window; a sparse
		// one a few terms scattered over the whole domain.
		window := 1 + rng.IntN(nTerms)
		share := 1 + rng.IntN(100)
		top := 1 + rng.IntN(12)
		var touched []dataset.Term
		for _, off := range rng.Perm(window) {
			if rng.IntN(100) < share {
				term := dataset.Term(nTerms - window + off)
				o.tcs[term] = int32(1 + rng.IntN(top))
				touched = append(touched, term)
			}
		}
		want := slices.Clone(touched)
		slices.SortFunc(want, func(a, b dataset.Term) int {
			return cmp.Or(cmp.Compare(o.tcs[b], o.tcs[a]), cmp.Compare(a, b))
		})
		o.rankTerms(touched)
		if !slices.Equal(touched, want) {
			t.Fatalf("trial %d: ranks %v, want %v", trial, touched, want)
		}
		for _, term := range touched {
			o.tcs[term] = 0
		}
	}
}

func TestGreedyDomainsPlacesAllEligible(t *testing.T) {
	records := []dataset.Record{
		dataset.NewRecord(1, 2), dataset.NewRecord(1, 2), dataset.NewRecord(1, 2),
		dataset.NewRecord(3), dataset.NewRecord(3), dataset.NewRecord(3),
	}
	scr := newPlanScratch(4)
	scr.totalSup[1], scr.totalSup[2], scr.totalSup[3] = 3, 3, 3
	ix := buildClusterIndex(records)
	var placed dataset.Record
	domains := greedyDomains(dataset.NewRecord(1, 2, 3), scr, func() domainChecker {
		return newKMCheckerOnIndex(3, 2, ix)
	}, &placed)
	if len(placed) != 3 {
		t.Errorf("placed %d terms, want 3", len(placed))
	}
	var all dataset.Record
	for _, d := range domains {
		all = all.Union(d)
	}
	if !all.Equal(dataset.NewRecord(1, 2, 3)) {
		t.Errorf("domains cover %v", all)
	}
}

// TestLeafStateSupportStrict pins the support-cache invariant: reading a
// support before the cache is built must panic instead of lazily (and
// racily) building it, since planJoin shares leaves across goroutines.
func TestLeafStateSupportStrict(t *testing.T) {
	l := &leafState{records: []dataset.Record{dataset.NewRecord(1, 2)}}
	defer func() {
		if recover() == nil {
			t.Fatal("support on an unbuilt cache did not panic")
		}
	}()
	l.support(1)
}

// TestLeafStateSupportAfterEnsure: newLeafState lifts the in-cluster
// supports and the term total out of the cluster index.
func TestLeafStateSupportAfterEnsure(t *testing.T) {
	records := []dataset.Record{
		dataset.NewRecord(1, 2), dataset.NewRecord(2),
	}
	l := newLeafState(records, &Cluster{Size: len(records)}, buildClusterIndex(records))
	for _, c := range []struct {
		term dataset.Term
		want int
	}{{1, 1}, {2, 2}, {9, 0}} {
		if got := l.support(c.term); got != c.want {
			t.Errorf("support(%d) = %d, want %d", c.term, got, c.want)
		}
	}
	if l.termTotal != 3 {
		t.Errorf("termTotal = %d, want 3", l.termTotal)
	}
}

func TestRefineDeterministic(t *testing.T) {
	run := func() []*refNode {
		return refineN(figure2Leaves(t), 3, 2, make([]bool, figure2Terms), rand.New(rand.NewPCG(5, 5)), 1, figure2Terms)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic refine")
	}
	for i := range a {
		if (a[i].leaf == nil) != (b[i].leaf == nil) {
			t.Fatal("node shapes differ between runs")
		}
	}
}

// aggregates are the per-node values REFINE keeps instead of rederiving them
// every pass.
type aggregates struct {
	leafList  []*leafState
	sz        int
	virtTC    dataset.Record
	supTC     []int32
	trDomains dataset.Record
}

// deriveAggregates computes a node's aggregates from its subtree alone: its
// leaves left to right and their total size; the union of their current
// term chunks, each term's support counted over the records of the leaves
// whose term chunk holds it; and T^r, the record-chunk domains of its
// leaves with the shared-chunk domains of its joints.
func deriveAggregates(n *refNode) aggregates {
	var a aggregates
	var walk func(n *refNode)
	walk = func(n *refNode) {
		if n.leaf == nil {
			for _, c := range n.shared {
				a.trDomains = a.trDomains.Union(c.Domain)
			}
			for _, c := range n.children {
				walk(c)
			}
			return
		}
		l := n.leaf
		a.leafList = append(a.leafList, l)
		a.sz += l.cluster.Size
		a.virtTC = a.virtTC.Union(l.cluster.TermChunk)
		for _, c := range l.cluster.RecordChunks {
			a.trDomains = a.trDomains.Union(c.Domain)
		}
	}
	walk(n)
	a.supTC = make([]int32, len(a.virtTC))
	for i, term := range a.virtTC {
		for _, l := range a.leafList {
			if !l.cluster.TermChunk.Contains(term) {
				continue
			}
			for _, r := range l.records {
				if r.Contains(term) {
					a.supTC[i]++
				}
			}
		}
	}
	return a
}

// TestRefineJointAggregatesMatchDerivation pins the aggregates commit and
// unionSupSubtract derive from a joint's parents (and newLeafNode from a
// leaf) to a from-scratch derivation over random VERPART leaves. Every
// top-level node of the result must match in full. A nested node's leaves,
// size and T^r never change after it is built, so they must match too;
// its term-chunk aggregates go stale by design once a later join strips its
// leaves' term chunks, and no pass reads them again.
func TestRefineJointAggregatesMatchDerivation(t *testing.T) {
	const nTerms = 40
	joints, nested := 0, 0
	for trial := range 30 {
		for _, workers := range []int{1, 4} {
			rng := rand.New(rand.NewPCG(uint64(trial), 0xA66))
			k, m := 2+rng.IntN(2), 1+rng.IntN(3)
			sensitive := map[dataset.Term]bool{dataset.Term(rng.IntN(nTerms)): true}
			bits := make([]bool, nTerms)
			for term := range sensitive {
				bits[term] = true
			}
			var leaves []*leafState
			for range 8 + rng.IntN(20) {
				var records []dataset.Record
				for range k + rng.IntN(8) {
					terms := make([]dataset.Term, 1+rng.IntN(6))
					for j := range terms {
						// Skewed toward low ids, so term chunks share terms.
						terms[j] = dataset.Term(rng.IntN(1 + rng.IntN(nTerms)))
					}
					records = append(records, dataset.NewRecord(terms...))
				}
				leaves = append(leaves, testLeaf(records, k, m, sensitive, rng))
			}
			out := refineN(leaves, k, m, bits, rng, workers, nTerms)
			for i, n := range out {
				want := deriveAggregates(n)
				if !slices.Equal(n.leafList, want.leafList) || n.sz != want.sz ||
					!n.virtTC.Equal(want.virtTC) || !slices.Equal(n.supTC, want.supTC) ||
					!n.trDomains.Equal(want.trDomains) {
					t.Fatalf("trial %d workers %d node %d: aggregates (sz %d, virtTC %v, supTC %v, T^r %v), derived (sz %d, virtTC %v, supTC %v, T^r %v)",
						trial, workers, i, n.sz, n.virtTC, n.supTC, n.trDomains,
						want.sz, want.virtTC, want.supTC, want.trDomains)
				}
				if n.leaf != nil {
					continue
				}
				joints++
				var walk func(n *refNode)
				walk = func(n *refNode) {
					for _, c := range n.children {
						want := deriveAggregates(c)
						if !slices.Equal(c.leafList, want.leafList) || c.sz != want.sz || !c.trDomains.Equal(want.trDomains) {
							t.Fatalf("trial %d workers %d node %d: nested node's leaves, size or T^r (%v) differ from its derivation (%v)",
								trial, workers, i, c.trDomains, want.trDomains)
						}
						if c.leaf == nil {
							nested++
							walk(c)
						}
					}
				}
				walk(n)
			}
		}
	}
	if joints == 0 || nested == 0 {
		t.Fatalf("fixture too weak: %d top-level joints, %d nested joints", joints, nested)
	}
	t.Logf("%d top-level joints, %d nested joints checked", joints, nested)
}
