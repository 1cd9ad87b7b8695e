package core

import (
	"cmp"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"disasso/internal/dataset"
	"disasso/internal/quest"
)

// collectPartition flattens clusters and checks they form an exact partition
// of the input records (same multiset).
func assertPartition(t *testing.T, d *dataset.Dataset, clusters [][]dataset.Record) {
	t.Helper()
	count := make(map[string]int)
	for _, r := range d.Records {
		count[r.Key()]++
	}
	total := 0
	for _, c := range clusters {
		for _, r := range c {
			count[r.Key()]--
			total++
		}
	}
	if total != d.Len() {
		t.Fatalf("clusters cover %d records, dataset has %d", total, d.Len())
	}
	for key, n := range count {
		if n != 0 {
			t.Fatalf("record %s imbalance %d", key, n)
		}
	}
}

func TestHorPartFormsPartition(t *testing.T) {
	d := dataset.FromRecords(figure2Records())
	clusters := HorPart(d, 6, nil)
	assertPartition(t, d, clusters)
	for i, c := range clusters {
		if len(c) >= 7 {
			t.Errorf("cluster %d has %d records, exceeding the bound", i, len(c))
		}
	}
}

func TestHorPartFigure2Split(t *testing.T) {
	// On Figure 2a with maxClusterSize 6 the first split is on madonna
	// (support 8); the recursion then splits the madonna side on ikea
	// (support 4 there). The resulting clusters keep co-occurring records
	// together.
	d := dataset.FromRecords(figure2Records())
	clusters := HorPart(d, 6, nil)
	if len(clusters) != 3 {
		t.Fatalf("got %d clusters, want 3", len(clusters))
	}
	sizes := []int{len(clusters[0]), len(clusters[1]), len(clusters[2])}
	want := map[int]int{4: 2, 2: 1} // two clusters of 4 and the {r4, r9} leftover
	got := map[int]int{}
	for _, s := range sizes {
		got[s]++
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("cluster sizes %v, want two of 4 and one of 2", sizes)
		}
	}
}

func TestHorPartSmallDatasetSingleCluster(t *testing.T) {
	d := dataset.FromRecords(figure2Records()[:3])
	clusters := HorPart(d, 10, nil)
	if len(clusters) != 1 || len(clusters[0]) != 3 {
		t.Errorf("clusters = %v", clusters)
	}
}

func TestHorPartEmptyDataset(t *testing.T) {
	if got := HorPart(dataset.New(0), 10, nil); len(got) != 0 {
		t.Errorf("empty dataset gave %d clusters", len(got))
	}
}

func TestHorPartIgnoreExhaustion(t *testing.T) {
	// All records identical: after splitting on every term, the remaining
	// block cannot be split and must be emitted as one oversized cluster.
	var records []dataset.Record
	for i := 0; i < 20; i++ {
		records = append(records, dataset.NewRecord(1, 2))
	}
	d := dataset.FromRecords(records)
	clusters := HorPart(d, 5, nil)
	assertPartition(t, d, clusters)
	// Splitting on 1 keeps all 20 together; splitting on 2 likewise; then
	// terms are exhausted. One cluster of 20 results.
	if len(clusters) != 1 || len(clusters[0]) != 20 {
		t.Errorf("got %d clusters with sizes %v, want one of 20", len(clusters), clusterSizes(clusters))
	}
}

func clusterSizes(clusters [][]dataset.Record) []int {
	out := make([]int, len(clusters))
	for i, c := range clusters {
		out[i] = len(c)
	}
	return out
}

func TestHorPartExcludedTermsNeverSplit(t *testing.T) {
	// Term 1 is the most frequent but excluded (sensitive); the split must
	// use term 2 instead, grouping by it.
	var records []dataset.Record
	for i := 0; i < 6; i++ {
		records = append(records, dataset.NewRecord(1, 2))
	}
	for i := 0; i < 6; i++ {
		records = append(records, dataset.NewRecord(1, dataset.Term(10+i)))
	}
	d := dataset.FromRecords(records)
	clusters := HorPart(d, 8, map[dataset.Term]bool{1: true})
	assertPartition(t, d, clusters)
	for _, c := range clusters {
		has2, lacks2 := 0, 0
		for _, r := range c {
			if r.Contains(2) {
				has2++
			} else {
				lacks2++
			}
		}
		if has2 > 0 && lacks2 > 0 {
			t.Errorf("cluster mixes term-2 and non-term-2 records: %v", c)
		}
	}
}

func TestHorPartGroupsSimilarRecords(t *testing.T) {
	// Two disjoint communities; every cluster must be pure.
	rng := rand.New(rand.NewPCG(3, 1))
	var records []dataset.Record
	for i := 0; i < 100; i++ {
		base := dataset.Term(0)
		if i%2 == 1 {
			base = 100
		}
		terms := make([]dataset.Term, 3)
		for j := range terms {
			terms[j] = base + dataset.Term(rng.IntN(10))
		}
		records = append(records, dataset.NewRecord(terms...))
	}
	d := dataset.FromRecords(records)
	clusters := HorPart(d, 20, nil)
	assertPartition(t, d, clusters)
	// The heuristic may emit one mixed catch-all of leftovers, but the bulk
	// of records must land in community-pure clusters.
	pure := 0
	for _, c := range clusters {
		lo, hi := false, false
		for _, r := range c {
			if r[0] < 100 {
				lo = true
			} else {
				hi = true
			}
		}
		if !(lo && hi) {
			pure += len(c)
		}
	}
	if pure < 80 {
		t.Errorf("only %d of 100 records in community-pure clusters", pure)
	}
}

func TestHorPartDeterministic(t *testing.T) {
	d := dataset.FromRecords(figure2Records())
	a := HorPart(d, 4, nil)
	b := HorPart(d, 4, nil)
	if len(a) != len(b) {
		t.Fatal("nondeterministic cluster count")
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("cluster %d sizes differ", i)
		}
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				t.Fatalf("cluster %d record %d differs", i, j)
			}
		}
	}
}

func TestHorPartMinimumClusterSize(t *testing.T) {
	// maxClusterSize below 2 is clamped; must not loop or panic.
	d := dataset.FromRecords(figure2Records())
	clusters := HorPart(d, 0, nil)
	assertPartition(t, d, clusters)
}

// refSplitStats records which rules a reference run exercised, so the oracle
// test fails if its inputs stop covering them.
type refSplitStats struct {
	carried, recounted int // splits of nodes on either side of the carry threshold
	ties               int // splits whose best support another term tied
	// marked and searched count the splits HORPART partitions through the
	// split term's posting list and those where the list is longer than
	// markedSplitRatio times the node, so it searches each record.
	marked, searched int
}

// refHorPart is the reference HORPART: every node recounts its records'
// supports and splits on the most frequent unignored term, ties toward the
// smaller id, with side first, by searching the term in each record. It
// returns the clusters as record indices. listLen holds each term's support
// over all of recs, the length of its posting list.
func refHorPart(recs []dataset.Record, idx []int32, ignore []bool, listLen []int, bound int, st *refSplitStats) [][]int32 {
	if len(idx) == 0 {
		return nil
	}
	if len(idx) < bound {
		return [][]int32{idx}
	}
	counts := make([]int, len(ignore))
	occ := 0
	for _, ri := range idx {
		occ += len(recs[ri])
		for _, t := range recs[ri] {
			if !ignore[t] {
				counts[t]++
			}
		}
	}
	best, bestSup, tied := -1, 0, false
	for t, c := range counts {
		switch {
		case c > bestSup:
			best, bestSup, tied = t, c, false
		case c == bestSup && c > 0:
			tied = true
		}
	}
	if bestSup == 0 {
		return [][]int32{idx}
	}
	if occ >= len(ignore) {
		st.carried++
	} else {
		st.recounted++
	}
	if tied {
		st.ties++
	}
	if listLen[best] > markedSplitRatio*len(idx) {
		st.searched++
	} else {
		st.marked++
	}
	var with, without []int32
	for _, ri := range idx {
		if recs[ri].Contains(dataset.Term(best)) {
			with = append(with, ri)
		} else {
			without = append(without, ri)
		}
	}
	ignore[best] = true
	out := refHorPart(recs, with, ignore, listLen, bound, st)
	ignore[best] = false
	return append(out, refHorPart(recs, without, ignore, listLen, bound, st)...)
}

// lopsidedChain builds a split tree that is a chain of the given depth: block
// j holds size records of chain term j, so the without spine splits on terms
// 0, 1, 2, … in order, each a tie with every later chain term. Each block
// also carries two terms of its own (on every second and every third record)
// so a block above the cluster bound splits again. Records are shuffled so
// the blocks interleave in record order.
func lopsidedChain(depth, size int, rng *rand.Rand) []dataset.Record {
	var recs []dataset.Record
	for j := 0; j < depth; j++ {
		for i := 0; i < size; i++ {
			r := dataset.Record{dataset.Term(j)}
			if i%2 == 0 {
				r = append(r, dataset.Term(depth+2*j))
			}
			if i%3 == 0 {
				r = append(r, dataset.Term(depth+2*j+1))
			}
			recs = append(recs, r)
		}
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// TestHorPartMatchesRecountOracle: HORPART with carried supports and
// postings-partitioned splits must emit the clusters of the
// recount-every-split reference, which searches the split term in each
// record — the same records in the same order — at 1 and 4 workers, on
// Quest data (with and without its most frequent terms excluded) and on a
// lopsided chain deeper than maxSpawnDepth, where splitIter carries the
// tables. Every input must split nodes on both sides of the carry threshold,
// split on support ties, and partition through a posting list; the Quest
// inputs must also fall back to the per-record search.
func TestHorPartMatchesRecountOracle(t *testing.T) {
	cfg := quest.DefaultConfig()
	cfg.NumTransactions, cfg.DomainSize, cfg.AvgTransLen, cfg.Seed = 3_000, 400, 8, 5
	g, err := quest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	questRecs := g.Generate().Records
	// The three most frequent Quest terms, the root's first split candidates.
	sup := make(map[dataset.Term]int)
	for _, r := range questRecs {
		for _, term := range r {
			sup[term]++
		}
	}
	frequent := slices.SortedFunc(maps.Keys(sup), func(a, b dataset.Term) int {
		return cmp.Or(sup[b]-sup[a], cmp.Compare(a, b))
	})[:3]
	chainRecs := lopsidedChain(2*maxSpawnDepth, 20, rand.New(rand.NewPCG(3, 9)))

	cases := []struct {
		name     string
		records  []dataset.Record
		exclude  []dataset.Term // global terms barred from splitting
		bound    int            // the cluster-size bound
		fallback bool           // some split searches each record
	}{
		{"quest", questRecs, nil, 30, true},
		{"quest-excluded", questRecs, frequent, 30, true},
		{"quest-small-clusters", questRecs, nil, 5, true},
		{"chain", chainRecs, nil, 16, false},
		{"chain-excluded", chainRecs, []dataset.Term{5, 2*maxSpawnDepth + 10}, 16, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dom := dataset.NewDenseDomain(tc.records)
			dense := dom.RemapAll(tc.records)
			exclude := make([]bool, dom.Len())
			for _, term := range tc.exclude {
				id, ok := dom.ID(term)
				if !ok {
					t.Fatalf("excluded term %d is not in the data", term)
				}
				exclude[id] = true
			}
			idx := make([]int32, len(dense))
			// Each emitted record names its own index, so a cluster reads
			// back as the record indices it holds.
			emit := make([]dataset.Record, len(dense))
			for i := range idx {
				idx[i] = int32(i)
				emit[i] = dataset.Record{dataset.Term(i)}
			}
			listLen := make([]int, dom.Len())
			for _, r := range dense {
				for _, term := range r {
					listLen[term]++
				}
			}
			var st refSplitStats
			want := refHorPart(dense, idx, slices.Clone(exclude), listLen, tc.bound, &st)
			if st.carried == 0 || st.recounted == 0 {
				t.Fatalf("input splits %d carrying and %d recounting nodes; the oracle needs both", st.carried, st.recounted)
			}
			if st.ties == 0 {
				t.Fatal("input splits on no support tie")
			}
			if st.marked == 0 {
				t.Fatal("no split goes through a posting list")
			}
			if tc.fallback && st.searched == 0 {
				t.Fatal("no split searches each record: the input misses the posting lists' fallback")
			}
			for _, workers := range []int{1, 4} {
				got := horPartN(emit, dense, dom.Len(), exclude, tc.bound, workers)
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d clusters, want %d", workers, len(got), len(want))
				}
				for ci := range want {
					if len(got[ci]) != len(want[ci]) {
						t.Fatalf("workers=%d: cluster %d has %d records, want %d", workers, ci, len(got[ci]), len(want[ci]))
					}
					for j, r := range got[ci] {
						if int32(r[0]) != want[ci][j] {
							t.Fatalf("workers=%d: cluster %d record %d is %d, want %d", workers, ci, j, r[0], want[ci][j])
						}
					}
				}
			}
			t.Logf("%d clusters; splits: %d carrying, %d recounting, %d ties, %d through postings, %d searching each record",
				len(want), st.carried, st.recounted, st.ties, st.marked, st.searched)
		})
	}
}
