package core

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"disasso/internal/dataset"
)

// figure2Leaves builds the leafStates of the paper's clusters P1 and P2
// after VERPART, as in Figure 2b.
func figure2Leaves(t *testing.T) []*leafState {
	t.Helper()
	p1 := figure2P1()
	p2 := figure2P2()
	return []*leafState{
		{records: p1, cluster: VerPart(p1, 3, 2, nil, testRNG())},
		{records: p2, cluster: VerPart(p2, 3, 2, nil, testRNG())},
	}
}

func TestTryJoinFigure3(t *testing.T) {
	// Joining P1 and P2 must produce the joint cluster of Figure 3: one
	// shared chunk over {ikea, ruby}, with viagra left in P1's term chunk
	// and panic disorder + playboy in P2's.
	leaves := figure2Leaves(t)
	a := &refNode{leaf: leaves[0]}
	b := &refNode{leaf: leaves[1]}
	a.refreshVirtualTC()
	b.refreshVirtualTC()

	j := tryJoin(a, b, 3, 2, nil, testRNG())
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
	mk := func(records []dataset.Record, term dataset.Term) *refNode {
		cl := VerPart(records, 3, 2, nil, testRNG())
		n := &refNode{leaf: &leafState{records: records, cluster: cl}}
		n.refreshVirtualTC()
		return n
	}
	a := mk([]dataset.Record{
		dataset.NewRecord(1, 10), dataset.NewRecord(1), dataset.NewRecord(1), dataset.NewRecord(1),
	}, 10)
	b := mk([]dataset.Record{
		dataset.NewRecord(2, 20), dataset.NewRecord(2), dataset.NewRecord(2), dataset.NewRecord(2),
	}, 20)
	if tryJoin(a, b, 3, 2, nil, testRNG()) != nil {
		t.Error("join without common term-chunk terms must be rejected")
	}
}

func TestTryJoinInsufficientSupport(t *testing.T) {
	// Term 9 is in both term chunks but has total support 2 < k=3: no
	// k^m-anonymous shared chunk can host it, so the join must fail.
	mk := func(records []dataset.Record) *refNode {
		cl := VerPart(records, 3, 2, nil, testRNG())
		n := &refNode{leaf: &leafState{records: records, cluster: cl}}
		n.refreshVirtualTC()
		return n
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
	if tryJoin(a, b, 3, 2, nil, testRNG()) != nil {
		t.Error("join with only sub-k refining terms must be rejected")
	}
}

func TestRefineFigure2EndToEnd(t *testing.T) {
	leaves := figure2Leaves(t)
	nodes := []*refNode{{leaf: leaves[0]}, {leaf: leaves[1]}}
	out := refine(nodes, 3, 2, nil, testRNG(), 1)
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
	var nodes []*refNode
	for i := 0; i < 4; i++ {
		base := dataset.Term(i * 100)
		records := []dataset.Record{
			dataset.NewRecord(base, base+50),
			dataset.NewRecord(base),
			dataset.NewRecord(base),
		}
		cl := VerPart(records, 3, 2, nil, testRNG())
		nodes = append(nodes, &refNode{leaf: &leafState{records: records, cluster: cl}})
	}
	out := refine(nodes, 3, 2, nil, testRNG(), 1)
	if len(out) != 4 {
		t.Errorf("refine changed the forest: %d nodes", len(out))
	}
	for _, n := range out {
		if n.leaf == nil {
			t.Error("unexpected joint node")
		}
	}
}

func TestRefinePropertyOneConflict(t *testing.T) {
	// Term 7 sits in the record chunk of one cluster (support ≥ k there)
	// and in the term chunks of two others. A shared chunk containing 7
	// would meet T^r, so it must come out k-anonymous.
	mkLeaf := func(records []dataset.Record) *refNode {
		cl := VerPart(records, 3, 2, nil, testRNG())
		return &refNode{leaf: &leafState{records: records, cluster: cl}}
	}
	// Cluster A: term 7 frequent → record chunk.
	a := mkLeaf([]dataset.Record{
		dataset.NewRecord(7, 1), dataset.NewRecord(7, 1), dataset.NewRecord(7, 1),
		dataset.NewRecord(7), dataset.NewRecord(9),
	})
	// Clusters B and C: term 7 and 8 infrequent → term chunks {7, 8}.
	mkBC := func() *refNode {
		return mkLeaf([]dataset.Record{
			dataset.NewRecord(7, 8), dataset.NewRecord(7, 8), dataset.NewRecord(5),
			dataset.NewRecord(5), dataset.NewRecord(5),
		})
	}
	b, c := mkBC(), mkBC()

	// First join B and C (term chunks {7,8} each, total support 4 ≥ 3).
	b.refreshVirtualTC()
	c.refreshVirtualTC()
	j := tryJoin(b, c, 3, 2, nil, testRNG())
	if j == nil {
		t.Fatal("B+C join rejected")
	}
	// Now join (B+C) with A: any shared chunk with term 7 conflicts with
	// A's record chunk.
	j.refreshVirtualTC()
	a.refreshVirtualTC()
	j2 := tryJoin(j, a, 3, 2, nil, testRNG())
	if j2 == nil {
		t.Skip("second join rejected by Equation 1 — conflict path not exercised")
	}
	trSize := max(j.maxNodeTerm(), a.maxNodeTerm()) + 1
	tr := make([]bool, trSize)
	j.recordAndSharedDomains(tr)
	a.recordAndSharedDomains(tr)
	for _, sc := range j2.shared {
		meets := false
		for _, term := range sc.Domain {
			if tr[term] {
				meets = true
			}
		}
		if meets && !IsChunkKAnonymous(sc.Domain, sc.Subrecords, 3) {
			t.Errorf("shared chunk %v meets T^r but is not 3-anonymous", sc.Domain)
		}
	}
}

func TestTryJoinKeepsChunklessClustersAlive(t *testing.T) {
	// Regression: two clusters smaller than k have no record chunks, only
	// term chunks {x, y}. Joining them moves both terms into shared chunks
	// (total supports reach k) — but each leaf must retain at least one
	// term, or its records become unreconstructable.
	x, y := dataset.Term(1), dataset.Term(2)
	mk := func(records []dataset.Record) *refNode {
		cl := VerPart(records, 5, 2, nil, testRNG())
		if len(cl.RecordChunks) != 0 {
			t.Fatal("fixture broken: expected no record chunks")
		}
		n := &refNode{leaf: &leafState{records: records, cluster: cl}}
		n.refreshVirtualTC()
		return n
	}
	a := mk([]dataset.Record{
		dataset.NewRecord(x, y), dataset.NewRecord(x, y), dataset.NewRecord(x),
	})
	b := mk([]dataset.Record{
		dataset.NewRecord(x, y), dataset.NewRecord(x, y), dataset.NewRecord(y),
	})
	j := tryJoin(a, b, 5, 2, nil, testRNG())
	if j == nil {
		t.Skip("join rejected — Lemma 2 retention path not exercised")
	}
	for _, l := range j.leaves(nil) {
		if len(l.cluster.RecordChunks) == 0 && len(l.cluster.TermChunk) == 0 {
			t.Fatal("join left a cluster with no chunks and no term chunk")
		}
	}
}

func TestOrderByTermChunksGroupsSharers(t *testing.T) {
	mk := func(termChunk ...dataset.Term) *refNode {
		cl := &Cluster{Size: 3, TermChunk: dataset.NewRecord(termChunk...)}
		n := &refNode{leaf: &leafState{cluster: cl}}
		n.refreshVirtualTC()
		return n
	}
	// Terms 1 and 2 each appear in two term chunks; nodes sharing them must
	// become adjacent.
	nodes := []*refNode{mk(1, 5), mk(3), mk(1, 6), mk(2, 7), mk(2)}
	orderByTermChunks(nodes)
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
	var placed dataset.Record
	domains := greedyDomains(dataset.NewRecord(1, 2, 3), scr, func() domainChecker {
		return newKMChecker(3, 2, records)
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

func TestLeafStateSupportAfterEnsure(t *testing.T) {
	l := &leafState{records: []dataset.Record{
		dataset.NewRecord(1, 2), dataset.NewRecord(2),
	}}
	l.ensureSupports()
	if got := l.support(2); got != 2 {
		t.Errorf("support(2) = %d, want 2", got)
	}
	if got := l.support(9); got != 0 {
		t.Errorf("support(9) = %d, want 0", got)
	}
	if l.termTotal != 3 {
		t.Errorf("termTotal = %d, want 3", l.termTotal)
	}
}

func TestRefineDeterministic(t *testing.T) {
	run := func() []*refNode {
		leaves := figure2Leaves(t)
		nodes := []*refNode{{leaf: leaves[0]}, {leaf: leaves[1]}}
		return refine(nodes, 3, 2, nil, rand.New(rand.NewPCG(5, 5)), 1)
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
