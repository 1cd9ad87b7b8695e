package query

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/quest"
)

// forceIndexed runs fn with the scan-fallback hook off so the indexed path
// is what's under test even under -tags query_scan.
func forceIndexed(t *testing.T, fn func()) {
	t.Helper()
	old := supportViaScan
	supportViaScan = false
	defer func() { supportViaScan = old }()
	fn()
}

func randomDataset(rng *rand.Rand, n, domain, maxLen int) *dataset.Dataset {
	var records []dataset.Record
	for i := 0; i < n; i++ {
		terms := make([]dataset.Term, 1+rng.IntN(maxLen))
		for j := range terms {
			terms[j] = dataset.Term(rng.IntN(domain))
		}
		records = append(records, dataset.NewRecord(terms...))
	}
	return dataset.FromRecords(records)
}

// The oracle property test of the tentpole: across K/M/cluster-size
// configurations and random datasets, the indexed Estimator must return
// Estimates identical — including the Expected float, bit for bit — to the
// retained scan path, for singletons and multi-term itemsets alike,
// including terms absent from the publication.
func TestEstimatorMatchesScanExactly(t *testing.T) {
	configs := []struct {
		k, m, maxCluster int
	}{
		{3, 2, 0},
		{5, 2, 0},
		{3, 3, 0},
		{4, 2, 12},
		{2, 1, 8},
	}
	for _, cfg := range configs {
		for _, seed := range []uint64{1, 2, 3} {
			rng := rand.New(rand.NewPCG(seed, uint64(cfg.k*100+cfg.m)))
			d := randomDataset(rng, 500, 40, 5)
			a, err := core.Anonymize(d, core.Options{
				K: cfg.k, M: cfg.m, MaxClusterSize: cfg.maxCluster, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			est := NewEstimator(a)
			forceIndexed(t, func() {
				check := func(s dataset.Record) {
					t.Helper()
					got := est.Support(s)
					want := Support(a, s)
					if got != want {
						t.Fatalf("config %+v seed %d itemset %v: indexed %+v != scan %+v",
							cfg, seed, s, got, want)
					}
				}
				check(dataset.Record{})
				for term := dataset.Term(0); term < 44; term++ { // incl. absent terms
					check(dataset.NewRecord(term))
				}
				for trial := 0; trial < 150; trial++ {
					size := 2 + rng.IntN(3)
					terms := make([]dataset.Term, size)
					for j := range terms {
						terms[j] = dataset.Term(rng.IntN(44))
					}
					check(dataset.NewRecord(terms...))
				}
			})
		}
	}
}

// The estimator sandwich invariant: Lower ≤ Expected ≤ Upper holds for every
// estimate of both paths, on random datasets and itemsets.
func TestSupportSandwichInvariant(t *testing.T) {
	for _, seed := range []uint64{10, 11, 12} {
		rng := rand.New(rand.NewPCG(seed, 77))
		d := randomDataset(rng, 400, 30, 5)
		a, err := core.Anonymize(d, core.Options{K: 3, M: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		est := NewEstimator(a)
		check := func(s dataset.Record, e Estimate, path string) {
			t.Helper()
			if e.Lower > e.Upper {
				t.Errorf("seed %d itemset %v (%s): Lower %d > Upper %d", seed, s, path, e.Lower, e.Upper)
			}
			if e.Expected < float64(e.Lower) || e.Expected > float64(e.Upper) {
				t.Errorf("seed %d itemset %v (%s): Expected %v outside [%d, %d]",
					seed, s, path, e.Expected, e.Lower, e.Upper)
			}
		}
		forceIndexed(t, func() {
			for trial := 0; trial < 300; trial++ {
				size := 1 + rng.IntN(4)
				terms := make([]dataset.Term, size)
				for j := range terms {
					terms[j] = dataset.Term(rng.IntN(33))
				}
				s := dataset.NewRecord(terms...)
				check(s, Support(a, s), "scan")
				check(s, est.Support(s), "indexed")
			}
		})
	}
}

// An itemset with a term outside the published domain is answered zero
// without allocating: every term is ranked before the posting lists are
// gathered, and the evaluator is built only when some cluster is a
// candidate. The widest itemsets hold 20,000 terms.
func TestSupportOutsideDomainAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 52))
	a, err := core.Anonymize(randomDataset(rng, 300, 25, 4), core.Options{K: 3, M: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	absent := make([]dataset.Term, 0, 20_000)
	for i := range cap(absent) {
		absent = append(absent, dataset.Term(1<<20+i))
	}
	itemsets := []dataset.Record{
		dataset.NewRecord(3, 1<<20),
		dataset.NewRecord(absent...),
		dataset.NewRecord(slices.Concat(absent[:19_990], clusterTerms(a.Clusters[0]))...),
	}
	est := NewEstimator(a)
	estimators := []*Estimator{est, NewRecoveredEstimator(a, est.Index(), est.Singles())}
	forceIndexed(t, func() {
		for _, s := range itemsets {
			want := Support(a, s)
			for i, e := range estimators {
				if got := e.Support(s); got != want {
					t.Fatalf("estimator %d, %d-term itemset: %+v != scan %+v", i, len(s), got, want)
				}
				if allocs := testing.AllocsPerRun(5, func() { e.Support(s) }); allocs != 0 {
					t.Errorf("estimator %d, %d-term itemset: %v allocations, want 0", i, len(s), allocs)
				}
			}
		}
	})
}

// The scan-hook must actually route through the scan path and still agree.
func TestEstimatorScanHook(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	d := randomDataset(rng, 300, 25, 4)
	a, err := core.Anonymize(d, core.Options{K: 3, M: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(a)
	old := supportViaScan
	defer func() { supportViaScan = old }()
	for trial := 0; trial < 50; trial++ {
		s := dataset.NewRecord(dataset.Term(rng.IntN(25)), dataset.Term(rng.IntN(25)))
		supportViaScan = true
		viaScan := est.Support(s)
		supportViaScan = false
		viaIndex := est.Support(s)
		if viaScan != viaIndex {
			t.Fatalf("itemset %v: scan-hook %+v != indexed %+v", s, viaScan, viaIndex)
		}
	}
}

// jointHeavyPublication anonymizes 5k Quest records (5k-term domain,
// average length 10, Quest seed 1) at k=5, m=2, seed 1. REFINE nests them
// into joints far wider and deeper than the random forests above reach: the
// largest holds 103 leaves, 12 levels deep, and some term sits in the shared
// chunks of joints at two or more nesting depths, the only case in which the
// singleton pass's running shared-chunk totals sum more than one entry. The
// input is fixed, so a shallower forest means the fixture broke, not that
// there is nothing to test.
func jointHeavyPublication(t *testing.T) (*dataset.Dataset, *core.Anonymized) {
	t.Helper()
	cfg := quest.DefaultConfig()
	cfg.NumTransactions = 5_000
	g, err := quest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Generate()
	a, err := core.Anonymize(d, core.Options{K: 5, M: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	widest, deepest, nested := 0, 0, 0
	for _, n := range a.Clusters {
		widest = max(widest, len(n.Leaves(nil)))
		deepest = max(deepest, depth(n))
		nested = max(nested, sharedNesting(n, map[dataset.Term]int{}))
	}
	if widest < 100 || deepest < 12 {
		t.Fatalf("largest joint has %d leaves and depth %d, want at least 100 and 12", widest, deepest)
	}
	if nested < 2 {
		t.Fatalf("a term sits in the shared chunks of at most %d nested joints, want at least 2", nested)
	}
	return d, a
}

// sharedNesting returns the largest number of shared chunks on one
// root-to-leaf path under n that hold the same term; held counts them for
// the path above n.
func sharedNesting(n *core.ClusterNode, held map[dataset.Term]int) int {
	most := 0
	for _, c := range n.SharedChunks {
		for _, t := range c.Domain {
			held[t]++
			most = max(most, held[t])
		}
	}
	for _, child := range n.Children {
		most = max(most, sharedNesting(child, held))
	}
	for _, c := range n.SharedChunks {
		for _, t := range c.Domain {
			held[t]--
		}
	}
	return most
}

func depth(n *core.ClusterNode) int {
	d := 0
	for _, c := range n.Children {
		d = max(d, depth(c))
	}
	return d + 1
}

// drawTerms returns n distinct terms of pool (n ≤ len(pool)), normalized.
func drawTerms(rng *rand.Rand, pool []dataset.Term, n int) dataset.Record {
	terms := make([]dataset.Term, 0, n)
	for _, i := range rng.Perm(len(pool))[:n] {
		terms = append(terms, pool[i])
	}
	return dataset.NewRecord(terms...)
}

// Estimator on joint-heavy output: every itemset shape the node-level term
// index treats differently must match the scan bit for bit, on the eager
// estimator and on one recovered from its index and singleton table (which
// builds the node index lazily).
func TestEstimatorMatchesScanOnJointHeavyForest(t *testing.T) {
	d, a := jointHeavyPublication(t)
	rng := rand.New(rand.NewPCG(31, 32))
	var itemsets []dataset.Record
	// 2–3-term itemsets drawn from records, the read workloads' shape.
	for len(itemsets) < 300 {
		r := d.Records[rng.IntN(len(d.Records))]
		if len(r) >= 2 {
			itemsets = append(itemsets, drawTerms(rng, r, min(2+rng.IntN(2), len(r))))
		}
	}
	// 9–16 terms, from one record or from the published domain of one
	// top-level cluster, so the whole itemset can meet in one cluster.
	for len(itemsets) < 360 {
		n := 9 + rng.IntN(8)
		if r := d.Records[rng.IntN(len(d.Records))]; len(r) >= n {
			itemsets = append(itemsets, drawTerms(rng, r, n))
		}
		if pool := clusterTerms(a.Clusters[rng.IntN(len(a.Clusters))]); len(pool) >= n {
			itemsets = append(itemsets, drawTerms(rng, pool, n))
		}
	}
	// One term absent from the publication.
	for i := 0; i < 20; i++ {
		itemsets = append(itemsets, itemsets[i].Union(dataset.Record{1 << 20}))
	}
	// Every singleton, and one absent term.
	for term := dataset.Term(0); term <= 5_000; term++ {
		itemsets = append(itemsets, dataset.Record{term})
	}

	est := NewEstimator(a)
	rec := NewRecoveredEstimator(a, est.Index(), est.Singles())
	forceIndexed(t, func() {
		for _, s := range itemsets {
			want := Support(a, s)
			if got := est.Support(s); got != want {
				t.Fatalf("itemset %v: indexed %+v != scan %+v", s, got, want)
			}
			if got := rec.Support(s); got != want {
				t.Fatalf("itemset %v: recovered %+v != scan %+v", s, got, want)
			}
		}
	})
}

// clusterTerms returns every term published in the node's chunks, sorted.
func clusterTerms(n *core.ClusterNode) []dataset.Term {
	var all dataset.Record
	n.Walk(func(cn *core.ClusterNode) {
		if cn.IsLeaf() {
			for _, c := range cn.Simple.RecordChunks {
				all = all.Union(c.Domain)
			}
			all = all.Union(cn.Simple.TermChunk)
			return
		}
		for _, c := range cn.SharedChunks {
			all = all.Union(c.Domain)
		}
	})
	return all
}

// The first multi-term queries of a recovered estimator race its lazy
// node-index build: 8 goroutines query one fresh estimator at once, and
// every answer must equal the eager estimator's.
func TestRecoveredEstimatorConcurrentFirstQueries(t *testing.T) {
	d, a := jointHeavyPublication(t)
	est := NewEstimator(a)
	rng := rand.New(rand.NewPCG(41, 42))
	itemsets := make([]dataset.Record, 0, 64)
	for len(itemsets) < cap(itemsets) {
		if r := d.Records[rng.IntN(len(d.Records))]; len(r) >= 2 {
			itemsets = append(itemsets, drawTerms(rng, r, min(2+rng.IntN(2), len(r))))
		}
	}
	want := make([]Estimate, len(itemsets))
	forceIndexed(t, func() {
		for i, s := range itemsets {
			want[i] = est.Support(s)
		}
		rec := NewRecoveredEstimator(a, est.Index(), est.Singles())
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := range itemsets {
					j := (i + g*len(itemsets)/8) % len(itemsets)
					if got := rec.Support(itemsets[j]); got != want[j] {
						t.Errorf("goroutine %d itemset %v: recovered %+v != eager %+v", g, itemsets[j], got, want[j])
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	})
}
