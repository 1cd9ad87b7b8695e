package core

import (
	"reflect"
	"testing"

	"disasso/internal/dataset"
	"disasso/internal/quest"
)

// assertTracksRescan fails the test unless the repair state agrees with a
// full rebuild of root: the state's sources, read group by group, are
// exactly what collectSources returns; each group's heavy list holds
// exactly its terms with k·s > n; and next picks the breach detectBreaches
// sorts first, with the same anchor and probability. It reports
// whether root still has a breach.
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
			t.Fatalf("group %d heavy terms %v, want %v", gi, g.heavy, heavy)
		}
	}
	srcs := collectSources(root)
	if !reflect.DeepEqual(flat, srcs) {
		t.Fatalf("the state's %d sources differ from the %d collectSources rebuilds", len(flat), len(srcs))
	}
	sites := detectBreaches(srcs, st.k)
	b, ok := st.next()
	if ok != (len(sites) > 0) {
		t.Fatalf("next found a breach = %v, the rescan found %d", ok, len(sites))
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
		t.Fatalf("next picked %+v, the rescan %+v", got, want)
	}
	return true
}

// TestRepairStateTracksRescan holds the incremental repair to the rescan
// before every step of every node it repairs, on Quest data (unsharded
// nodes of up to 75 leaves, and sharded) and on small dense datasets.
// Byte-equal final forests can hide a stale source whose effect washes out;
// this cannot.
func TestRepairStateTracksRescan(t *testing.T) {
	defer UseSafeRepairRescan(false)()
	breached := 0
	checkRepairStep = func(st *repairState, root *ClusterNode) {
		if assertTracksRescan(t, st, root) {
			breached++
		}
	}
	defer func() { checkRepairStep = nil }()

	qcfg := quest.DefaultConfig()
	qcfg.NumTransactions, qcfg.DomainSize, qcfg.Seed = 2_000, 2_000, 1
	g, err := quest.New(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	q := g.Generate()
	for _, shard := range []int{0, 400} {
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
	if breached == 0 {
		t.Fatal("no step repaired a breach; the lockstep check is vacuous")
	}
	t.Logf("%d repair steps checked against the rescan", breached)
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
