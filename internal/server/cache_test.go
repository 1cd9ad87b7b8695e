package server

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/load"
	"disasso/internal/query"
)

// TestSupportCacheTransparent is the cache's correctness contract: for
// random datasets, anonymization configs and random workload mixes, the
// cached path answers bit-identically to the uncached estimator — which is
// itself pinned to the query_scan oracle by the internal/query property
// tests, so the chain publication → scan → index → cache is closed. The
// cache is kept tiny so the op stream churns it through constant eviction,
// and every query is re-asked to force hit-path answers.
func TestSupportCacheTransparent(t *testing.T) {
	old, oldEntries := supportCacheOn, supportCacheEntries
	supportCacheOn = true
	defer func() { supportCacheOn, supportCacheEntries = old, oldEntries }()

	configs := []struct {
		seed               uint64
		n, domain, maxLen  int
		k, m, cacheEntries int
	}{
		{seed: 1, n: 250, domain: 50, maxLen: 6, k: 3, m: 2, cacheEntries: 32},
		{seed: 2, n: 400, domain: 120, maxLen: 8, k: 5, m: 2, cacheEntries: 64},
		{seed: 3, n: 150, domain: 30, maxLen: 4, k: 2, m: 3, cacheEntries: 16},
	}
	mixes := []string{
		"singleton zipf=1.4",
		"itemset min=2 max=4",
		"singleton weight=3 zipf=0\nitemset weight=2 min=1 max=3",
	}
	for ci, cfg := range configs {
		rng := rand.New(rand.NewPCG(cfg.seed, 0xCAC4E))
		var records []dataset.Record
		for i := 0; i < cfg.n; i++ {
			terms := make([]dataset.Term, 1+rng.IntN(cfg.maxLen))
			for j := range terms {
				terms[j] = dataset.Term(rng.IntN(cfg.domain))
			}
			records = append(records, dataset.NewRecord(terms...))
		}
		a, err := core.Anonymize(dataset.FromRecords(records), core.Options{K: cfg.k, M: cfg.m, Seed: cfg.seed})
		if err != nil {
			t.Fatal(err)
		}
		supportCacheEntries = cfg.cacheEntries
		sn := newSnapshot("t", a, nil, nil, core.Options{})
		uncached := query.NewEstimator(a)
		for mi, mix := range mixes {
			spec, err := load.ParseSpec(mix)
			if err != nil {
				t.Fatal(err)
			}
			model, err := load.NewModel(a, spec, cfg.seed*31+uint64(mi))
			if err != nil {
				t.Fatal(err)
			}
			st := model.Stream(0)
			var asked []dataset.Record
			for i := 0; i < 600; i++ {
				asked = append(asked, st.Next().Itemset)
			}
			// Two passes: the second re-asks every itemset so answers come
			// off the hit path wherever the entry survived eviction.
			for pass := 0; pass < 2; pass++ {
				for i, itemset := range asked {
					got := sn.support(itemset)
					want := uncached.Support(itemset)
					if got != want {
						t.Fatalf("config %d mix %d pass %d op %d: cached %+v != uncached %+v for %v",
							ci, mi, pass, i, got, want, itemset)
					}
				}
			}
			if n := sn.cache.len(); n > cfg.cacheEntries {
				t.Fatalf("config %d mix %d: cache holds %d entries, cap %d", ci, mi, n, cfg.cacheEntries)
			}
		}
	}
}

// TestSupportCacheDisabled: with supportCacheOn off, every estimate
// bypasses the cache; a bound below one entry per shard rounds up to one.
func TestSupportCacheDisabled(t *testing.T) {
	a, itemsets := cacheBenchPublication(t, 200, 40)
	old, oldEntries := supportCacheOn, supportCacheEntries
	defer func() { supportCacheOn, supportCacheEntries = old, oldEntries }()
	supportCacheEntries = cacheShards - 1
	c := newSupportCache()
	for i := range c.shards {
		if c.shards[i].max != 1 {
			t.Errorf("bound %d: shard %d holds %d entries, want 1", supportCacheEntries, i, c.shards[i].max)
		}
	}
	supportCacheEntries = 1024
	sn := newSnapshot("t", a, nil, nil, core.Options{})
	supportCacheOn = false
	for _, s := range itemsets {
		sn.support(s)
	}
	if n := sn.cache.len(); n != 0 {
		t.Errorf("hook off, but the cache filled %d entries", n)
	}
}

// TestSupportCacheConcurrent hammers one snapshot's cache from many
// goroutines over a key set far exceeding the cap, so gets, puts and clock
// evictions race; run under -race this is the cache's synchronization
// proof, and every answer must still be bit-identical to the uncached
// estimator.
func TestSupportCacheConcurrent(t *testing.T) {
	old, oldEntries := supportCacheOn, supportCacheEntries
	supportCacheOn, supportCacheEntries = true, 64
	defer func() { supportCacheOn, supportCacheEntries = old, oldEntries }()

	a, _ := cacheBenchPublication(t, 400, 80)
	sn := newSnapshot("t", a, nil, nil, core.Options{})
	uncached := query.NewEstimator(a)
	spec, err := load.ParseSpec("singleton weight=2 zipf=1.2\nitemset weight=1 min=2 max=3")
	if err != nil {
		t.Fatal(err)
	}
	model, err := load.NewModel(a, spec, 99)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := model.Stream(c)
			for i := 0; i < 2000; i++ {
				itemset := st.Next().Itemset
				if got, want := sn.support(itemset), uncached.Support(itemset); got != want {
					errc <- fmt.Errorf("client %d op %d: cached %+v != uncached %+v", c, i, got, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if n := sn.cache.len(); n > 64 {
		t.Errorf("cache exceeded its cap: %d entries", n)
	}
}

// cacheBenchPublication builds a deterministic publication plus a query set
// for the cache tests and benchmarks.
func cacheBenchPublication(tb testing.TB, n, domain int) (*core.Anonymized, []dataset.Record) {
	tb.Helper()
	rng := rand.New(rand.NewPCG(77, 0xBE7C4))
	var records []dataset.Record
	for i := 0; i < n; i++ {
		terms := make([]dataset.Term, 1+rng.IntN(8))
		for j := range terms {
			terms[j] = dataset.Term(rng.IntN(domain))
		}
		records = append(records, dataset.NewRecord(terms...))
	}
	a, err := core.Anonymize(dataset.FromRecords(records), core.Options{K: 3, M: 2, Seed: 77})
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := load.ParseSpec("singleton weight=3 zipf=1.3\nitemset weight=1 min=2 max=3")
	if err != nil {
		tb.Fatal(err)
	}
	model, err := load.NewModel(a, spec, 7)
	if err != nil {
		tb.Fatal(err)
	}
	st := model.Stream(0)
	itemsets := make([]dataset.Record, 4096)
	for i := range itemsets {
		itemsets[i] = st.Next().Itemset
	}
	return a, itemsets
}

// BenchmarkServedSupportCached / Uncached measure the snapshot-level
// difference the cache makes on a Zipf repeat-heavy mix (the HTTP-level
// counterpart is CI's pair of loadbench runs, the second built with
// -tags support_nocache).
func BenchmarkServedSupportCached(b *testing.B) {
	old := supportCacheOn
	supportCacheOn = true
	defer func() { supportCacheOn = old }()
	a, itemsets := cacheBenchPublication(b, 2000, 300)
	sn := newSnapshot("b", a, nil, nil, core.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn.support(itemsets[i%len(itemsets)])
	}
}

func BenchmarkServedSupportUncached(b *testing.B) {
	old := supportCacheOn
	supportCacheOn = false
	defer func() { supportCacheOn = old }()
	a, itemsets := cacheBenchPublication(b, 2000, 300)
	sn := newSnapshot("b", a, nil, nil, core.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn.support(itemsets[i%len(itemsets)])
	}
}
