package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"disasso/internal/dataset"
	"disasso/internal/quest"
)

// assertTracksRescan fails the test unless the repair state agrees with a
// full rebuild of root: the state's sources, read group by group, are
// exactly what collectSources returns; each group's heavy list holds
// exactly its terms with k·s > n; and next picks the breach detectBreaches
// sorts first, with the same anchor and probability. It reports
// whether root still has a breach. Shards repair on worker goroutines, so
// it reports a mismatch with t.Errorf and returns false.
func assertTracksRescan(t *testing.T, st *repairState, root *ClusterNode) bool {
	t.Helper()
	var flat []breachSrc
	var at [][]int // at[g][src] is the source's canonical index
	for gi := range st.groups {
		g := &st.groups[gi]
		var idx []int
		var heavy []heavyTerm
		for si := range g.srcs {
			idx = append(idx, len(flat))
			flat = append(flat, g.srcs[si])
			for ti, s := range g.srcs[si].sup {
				if st.k*s > g.n {
					heavy = append(heavy, heavyTerm{si, ti})
				}
			}
		}
		at = append(at, idx)
		if len(heavy) != len(g.heavy) || (len(heavy) > 0 && !reflect.DeepEqual(heavy, g.heavy)) {
			t.Errorf("group %d heavy terms %v, want %v", gi, g.heavy, heavy)
			return false
		}
	}
	srcs := collectSources(root)
	if !reflect.DeepEqual(flat, srcs) {
		t.Errorf("the state's %d sources differ from the %d collectSources rebuilds", len(flat), len(srcs))
		return false
	}
	sites := detectBreaches(srcs, st.k)
	b, ok := st.next()
	if ok != (len(sites) > 0) {
		t.Errorf("next found a breach = %v, the rescan found %d", ok, len(sites))
		return false
	}
	if !ok {
		return false
	}
	anchor, _ := anchorTermIn(&st.groups[b.ag].srcs[b.asrc], b.learned)
	got := breachSite{
		Breach: Breach{Cluster: -1, Anchor: anchor, Learned: b.learned, Num: b.num, Den: b.den},
		src:    at[b.g][b.src], anchor: at[b.ag][b.asrc],
	}
	if want := sites[0]; !reflect.DeepEqual(got, want) {
		t.Errorf("next picked %+v, the rescan %+v", got, want)
		return false
	}
	return true
}

// repairSweep publishes, with SafeDisassociation on, the inputs the repair
// state is checked on: 2k Quest records at each of the given shard cuts (0
// is one unsharded shard, whose nodes grow to 75 leaves) and six small dense
// datasets at k = 2–4.
func repairSweep(t *testing.T, cuts ...int) {
	t.Helper()
	qcfg := quest.DefaultConfig()
	qcfg.NumTransactions, qcfg.DomainSize, qcfg.Seed = 2_000, 2_000, 1
	g, err := quest.New(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	q := g.Generate()
	for _, shard := range cuts {
		opts := Options{K: 5, M: 2, Seed: 3, MaxShardRecords: shard, SafeDisassociation: true}
		if _, err := Anonymize(q, opts); err != nil {
			t.Fatalf("quest shard=%d: %v", shard, err)
		}
	}
	for seed := uint64(1); seed <= 6; seed++ {
		opts := Options{K: 2 + int(seed%3), M: 2, MaxClusterSize: 8, Seed: seed, SafeDisassociation: true}
		if _, err := Anonymize(genDataset(seed, 0x5AFE, 200), opts); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRepairStateTracksRescan holds the incremental repair to the rescan
// before every step of every node it repairs, on Quest data (unsharded
// nodes of up to 75 leaves, and sharded) and on small dense datasets.
// Byte-equal final forests can hide a stale source whose effect washes out;
// this cannot.
func TestRepairStateTracksRescan(t *testing.T) {
	defer UseSafeRepairRescan(false)()
	// Shards, and the top-level nodes within one, repair concurrently, so
	// the hook runs on several goroutines at once.
	var mu sync.Mutex
	breached := 0
	checkRepairStep = func(st *repairState, root *ClusterNode) {
		mu.Lock()
		defer mu.Unlock()
		if assertTracksRescan(t, st, root) {
			breached++
		}
	}
	defer func() { checkRepairStep = nil }()
	repairSweep(t, 0, 400)
	if breached == 0 {
		t.Fatal("no step repaired a breach; the lockstep check is vacuous")
	}
	t.Logf("%d repair steps checked against the rescan", breached)
}

// TestRepairHoldersMatchScan holds the holder index to a scan of every group
// before every shared demotion: the demoted term's holders must be exactly
// the joints whose shared chunks carry it and the leaves whose original
// records hold it, in group order. A missing joint would leave the term in a
// shared chunk, a missing leaf would lose a re-disclosure.
func TestRepairHoldersMatchScan(t *testing.T) {
	defer UseSafeRepairRescan(false)()
	var mu sync.Mutex
	demotions, leafHolders := 0, 0
	checkSharedDemotion = func(st *repairState, a dataset.Term) {
		var want []int32
		leaves := 0
		for gi := range st.groups {
			n := st.groups[gi].node
			holds := false
			if n.IsLeaf() {
				for _, r := range st.originals(n.Simple) {
					holds = holds || r.Contains(a)
				}
				if holds {
					leaves++
				}
			} else {
				for ci := range n.SharedChunks {
					holds = holds || n.SharedChunks[ci].Domain.Contains(a)
				}
			}
			if holds {
				want = append(want, int32(gi))
			}
		}
		if got := st.holdersOf(a); !slices.Equal(got, want) {
			t.Errorf("term %d: the index lists groups %v, a scan finds %v", a, got, want)
		}
		mu.Lock()
		defer mu.Unlock()
		demotions++
		leafHolders += leaves
	}
	defer func() { checkSharedDemotion = nil }()
	repairSweep(t, 0)
	if demotions == 0 || leafHolders == 0 {
		t.Fatalf("%d shared demotions with %d leaf holders; the check is vacuous", demotions, leafHolders)
	}
	t.Logf("%d shared demotions checked, %d leaf holders", demotions, leafHolders)
}

// TestRepairNextBreaksTiesLikeRescan pins the tie the generated data rarely
// reaches: at k=3, leaf 0 learns term 1 at 2/3 through its own second
// chunk, and leaf 1, whose only chunk offers no other anchor term, learns
// term 3 at 6/9 through the joint's shared chunk. The probabilities are
// equal, so canonical order decides, and the first leaf's breach must win
// although the second's undiluted bound (6/6) is higher.
func TestRepairNextBreaksTiesLikeRescan(t *testing.T) {
	rec := func(ts ...dataset.Term) dataset.Record { return dataset.NewRecord(ts...) }
	leaf0 := &Cluster{Size: 3, RecordChunks: []Chunk{
		{Domain: rec(1), Subrecords: []dataset.Record{rec(1), rec(1)}},
		{Domain: rec(2), Subrecords: []dataset.Record{rec(2)}},
	}}
	leaf1 := &Cluster{Size: 6, RecordChunks: []Chunk{
		{Domain: rec(3), Subrecords: []dataset.Record{rec(3), rec(3), rec(3), rec(3), rec(3), rec(3)}},
	}}
	root := &ClusterNode{
		Children:     []*ClusterNode{{Simple: leaf0}, {Simple: leaf1}},
		SharedChunks: []Chunk{{Domain: rec(4), Subrecords: []dataset.Record{rec(4)}}},
	}
	const k = 3
	sites := detectBreaches(collectSources(root), k)
	if len(sites) != 2 || sites[0].Num*sites[1].Den != sites[1].Num*sites[0].Den || sites[1].Den != 9 {
		t.Fatalf("fixture no longer ties a leaf-anchored and a joint-anchored breach: %+v", sites)
	}
	assertTracksRescan(t, newRepairState(root, nil, k), root)
}
