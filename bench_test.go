// Benchmarks: one per table/figure of the paper's evaluation (running the
// same harness as cmd/experiments at reduced scale so `go test -bench=.`
// terminates in minutes — cmd/experiments reproduces full-size runs), plus
// ablation benchmarks for the design choices DESIGN.md calls out and
// micro-benchmarks for the pipeline stages.
package disasso_test

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"disasso"
	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/diffpriv"
	"disasso/internal/experiments"
	"disasso/internal/generalization"
	"disasso/internal/hierarchy"
	"disasso/internal/itemset"
	"disasso/internal/metrics"
	"disasso/internal/query"
	"disasso/internal/quest"
	"disasso/internal/realdata"
	"disasso/internal/reconstruct"
)

// benchConfig shrinks the experiment scale so each figure regenerates in
// roughly a second. EXPERIMENTS.md records the full-scale numbers.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 500
	cfg.TopK = 200
	return cfg
}

// benchFigure runs one figure runner b.N times.
func benchFigure(b *testing.B, id string, scale int) {
	cfg := benchConfig()
	cfg.Scale = scale
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table/figure ---

func BenchmarkFig6(b *testing.B)   { benchFigure(b, "fig6", 500) }
func BenchmarkFig7a(b *testing.B)  { benchFigure(b, "fig7a", 500) }
func BenchmarkFig7bc(b *testing.B) { benchFigure(b, "fig7bc", 500) }
func BenchmarkFig7d(b *testing.B)  { benchFigure(b, "fig7d", 500) }
func BenchmarkFig8ab(b *testing.B) { benchFigure(b, "fig8ab", 2000) }
func BenchmarkFig8c(b *testing.B)  { benchFigure(b, "fig8c", 2000) }
func BenchmarkFig8d(b *testing.B)  { benchFigure(b, "fig8d", 2000) }
func BenchmarkFig9ab(b *testing.B) { benchFigure(b, "fig9ab", 500) }
func BenchmarkFig10a(b *testing.B) { benchFigure(b, "fig10a", 2000) }
func BenchmarkFig10b(b *testing.B) { benchFigure(b, "fig10b", 2000) }
func BenchmarkFig11(b *testing.B)  { benchFigure(b, "fig11", 500) }

// --- Ablation benchmarks ---

// benchDataset builds the shared ablation workload: a mid-sized Quest
// dataset with the paper's density profile.
func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	cfg := quest.DefaultConfig()
	cfg.NumTransactions = 20_000
	cfg.DomainSize = 1_000
	cfg.AvgTransLen = 8
	cfg.Seed = 42
	g, err := quest.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return g.Generate()
}

// BenchmarkAblationMaxClusterSize sweeps the horizontal-partitioning
// threshold: small clusters anonymize faster but disassociate more; large
// clusters preserve more itemsets at higher cost (the trade-off Section 3
// motivates). tKd-a is attached as a custom metric.
func BenchmarkAblationMaxClusterSize(b *testing.B) {
	d := benchDataset(b)
	for _, size := range []int{10, 20, 30, 50, 100} {
		b.Run(benchName("max", size), func(b *testing.B) {
			var tkdA float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := core.Anonymize(d, core.Options{K: 5, M: 2, MaxClusterSize: size, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				tkdA = metrics.TopKDeviationLowerBound(d.Records, a, 200, 2)
			}
			b.ReportMetric(tkdA, "tKd-a")
		})
	}
}

// BenchmarkAblationRefine isolates the REFINE step's cost and quality
// effect (joint clusters recover terms stranded in term chunks).
func BenchmarkAblationRefine(b *testing.B) {
	d := benchDataset(b)
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var tlost float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := core.Anonymize(d, core.Options{K: 5, M: 2, DisableRefine: disable, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				tlost = metrics.TermsLost(d, a, 5)
			}
			b.ReportMetric(tlost, "tlost")
		})
	}
}

// BenchmarkAblationM sweeps the adversary-knowledge bound m: larger m means
// exponentially more combinations to check in VERPART (the paper reports a
// negligible effect for m > 2 on its datasets).
func BenchmarkAblationM(b *testing.B) {
	d := benchDataset(b)
	for _, m := range []int{1, 2, 3} {
		b.Run(benchName("m", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Anonymize(d, core.Options{K: 5, M: m, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationParallel measures the per-cluster parallelism Section 3
// points out (clusters anonymize independently). REFINE is disabled so the
// parallel section (VERPART) is what dominates; with REFINE on, its
// single-threaded fixpoint masks the scaling.
func BenchmarkAblationParallel(b *testing.B) {
	d := benchDataset(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Anonymize(d, core.Options{K: 5, M: 2, Parallel: workers, DisableRefine: true, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Pipeline stage micro-benchmarks ---

func BenchmarkHorPart(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.HorPart(d, 30, nil)
	}
}

// BenchmarkHorPartParallel sweeps the worker count of the parallel
// recursive splits; the emitted cluster list is identical at every setting.
func BenchmarkHorPartParallel(b *testing.B) {
	d := benchDataset(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.HorPartN(d, 30, nil, workers)
			}
		})
	}
}

func BenchmarkVerPart(b *testing.B) {
	d := benchDataset(b)
	clusters := core.HorPart(d, 30, nil)
	rng := rand.New(rand.NewPCG(1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.VerPart(clusters[i%len(clusters)], 5, 2, nil, rng)
	}
}

func BenchmarkAnonymizeEndToEnd(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Anonymize(d, core.Options{K: 5, M: 2, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnonymizeGlobal times one-shard publishes in process, at k=5,
// m=2, seed 1 and the default worker count. The first two are the end-to-end
// benchmark's; the last two have long records, up to 74 and 44 terms:
//
//   - paper20k: the publish workload's in-memory publish, the first 20k
//     Quest records at seed 1 (5k-term domain, average length 10);
//   - read50k: the read workloads' set-up, the first 50k records of the
//     same data;
//   - pos: the POS stand-in at scale 10 (51,559 records, 1,657 terms);
//   - wv2: the WV2 stand-in (77,512 records, 3,340 terms).
func BenchmarkAnonymizeGlobal(b *testing.B) {
	for _, shape := range []struct {
		name string
		gen  func(*testing.B) []dataset.Record
	}{
		{"paper20k", func(b *testing.B) []dataset.Record { return benchQuest50k(b)[:20_000] }},
		{"read50k", benchQuest50k},
		{"pos", func(*testing.B) []dataset.Record { return realdata.POS.Scaled(10).Generate().Records }},
		{"wv2", func(*testing.B) []dataset.Record { return realdata.WV2.Generate().Records }},
	} {
		b.Run(shape.name, func(b *testing.B) {
			d := dataset.FromRecords(shape.gen(b))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Anonymize(d, core.Options{K: 5, M: 2, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchQuest50k generates the end-to-end benchmark's data: the first 50k
// Quest records at seed 1, over a 5k-term domain, average length 10.
func benchQuest50k(b *testing.B) []dataset.Record {
	b.Helper()
	cfg := quest.DefaultConfig()
	cfg.NumTransactions = 50_000
	cfg.DomainSize = 5_000
	cfg.AvgTransLen = 10
	cfg.Seed = 1
	g, err := quest.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return g.Generate().Records
}

// BenchmarkAnonymizeEndToEndParallel sweeps the worker count with REFINE
// enabled: since the incremental engine, a pass's not-yet-memoized join plans
// are evaluated concurrently, so the full pipeline — not just VERPART —
// scales with workers while staying byte-identical.
func BenchmarkAnonymizeEndToEndParallel(b *testing.B) {
	d := benchDataset(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Anonymize(d, core.Options{K: 5, M: 2, Parallel: workers, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnonymizeStream measures the sharded streaming engine under a
// 1 MiB memory budget, end to end: the counting pass, shard planning, the
// per-shard pipeline and chunked output assembly. Three shapes run:
//
//   - quest40k: 40k Quest records (1k-term domain, average length 8), about
//     4× the budget, whose HORPART chain is planned in memory;
//   - publish: the end-to-end benchmark's streamed publish, 20k Quest
//     records (5k-term domain, average length 10, Quest seed 1), planned in
//     memory too;
//   - uniform40k: 40k records of 2–10 terms drawn uniformly from 2k ids
//     (TestStreamBoundedMemory's generator), whose root does not fit the
//     planning share, so its plan routes through spill files.
//
// The bytes staged in temp files (Stats.SpillBytes) and the peak live heap
// are attached as custom metrics. The peak comes from one extra, untimed
// run under livePeakHeap's forced-collection sampler; the bounded-memory
// contract itself is asserted by the internal/shard tests.
func BenchmarkAnonymizeStream(b *testing.B) {
	streamQuest := func(n, domain int, avgLen float64, seed uint64) func(*testing.B) *dataset.Dataset {
		return func(b *testing.B) *dataset.Dataset {
			cfg := quest.DefaultConfig()
			cfg.NumTransactions = n
			cfg.DomainSize = domain
			cfg.AvgTransLen = avgLen
			cfg.Seed = seed
			g, err := quest.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return g.Generate()
		}
	}
	for _, shape := range []struct {
		name string
		gen  func(*testing.B) *dataset.Dataset
	}{
		{"quest40k", streamQuest(40_000, 1_000, 8, 42)},
		{"publish", streamQuest(20_000, 5_000, 10, 1)},
		{"uniform40k", func(*testing.B) *dataset.Dataset { return uniformRecords(40_000) }},
	} {
		b.Run(shape.name, func(b *testing.B) {
			var text bytes.Buffer
			if err := disasso.WriteIDs(&text, shape.gen(b)); err != nil {
				b.Fatal(err)
			}
			input := text.Bytes()
			const budget = 1 << 20
			publish := func() disasso.StreamStats {
				var out bytes.Buffer
				st, err := disasso.AnonymizeStream(bytes.NewReader(input), &out, disasso.StreamOptions{
					Core:         disasso.Options{K: 5, M: 2, Seed: 1},
					MemoryBudget: budget,
					TempDir:      b.TempDir(),
				})
				if err != nil {
					b.Fatal(err)
				}
				if !st.Spilled {
					b.Fatal("benchmark dataset did not exceed the budget")
				}
				return st
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			var spill int64
			for i := 0; i < b.N; i++ {
				spill = publish().SpillBytes
			}
			b.StopTimer()
			peak := livePeakHeap(func() { publish() })
			b.ReportMetric(float64(peak)/(1<<20), "peak-MiB")
			b.ReportMetric(float64(spill)/(1<<20), "spill-MiB")
		})
	}
}

// uniformRecords generates n records the way TestStreamBoundedMemory's
// dataset does: PCG seeds 0xB16, 0xDA7A, each record's terms drawn from 2,000
// ids while j < 2+IntN(9), a bound redrawn before every term.
func uniformRecords(n int) *dataset.Dataset {
	rng := rand.New(rand.NewPCG(0xB16, 0xDA7A))
	records := make([]dataset.Record, n)
	for i := range records {
		var terms []dataset.Term
		for j := 0; j < 2+rng.IntN(9); j++ {
			terms = append(terms, dataset.Term(rng.IntN(2000)))
		}
		records[i] = dataset.NewRecord(terms...)
	}
	return dataset.FromRecords(records)
}

// livePeakHeap runs fn once and returns its peak live heap over the heap
// before it started. A sampler forces a collection every 10 ms before it
// reads HeapAlloc, as TestStreamBoundedMemory's does, so the peak is the
// working set rather than garbage the collector has not reclaimed yet.
func livePeakHeap(fn func()) uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var peak uint64
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		ticker := time.NewTicker(10 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				runtime.GC()
				var s runtime.MemStats
				runtime.ReadMemStats(&s)
				peak = max(peak, s.HeapAlloc)
			}
		}
	}()
	fn()
	close(done)
	<-stopped
	return max(peak, base) - base
}

// --- Delta republish: incremental vs from-scratch ---

// BenchmarkDeltaRepublish measures republish latency as a function of delta
// size: balanced churn deltas of 0.1%, 1% and 10% of the records against the
// full-republish baseline over the same dataset. Each delta removes a spread
// of resident records and appends fresh copies drawn from the same
// distribution — the steady state of the loadbench append/remove mix, where
// every append is eventually retired by a remove. Small shards keep the
// dirty fraction proportional to churn; dirty-shards/total-shards is
// attached so the scaling is visible in the BENCH record, not just implied
// by ns/op.
func BenchmarkDeltaRepublish(b *testing.B) {
	d := benchDataset(b)
	opts := core.Options{K: 3, M: 2, MaxClusterSize: 8, MaxShardRecords: 12, Seed: 1}
	_, st, err := core.AnonymizeWithState(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	records := st.Records()
	n := len(records)
	for _, size := range []struct {
		name string
		frac float64
	}{
		{"0.1pct", 0.001},
		{"1pct", 0.01},
		{"10pct", 0.10},
	} {
		b.Run("delta="+size.name, func(b *testing.B) {
			c := int(float64(n)*size.frac + 0.5)
			if c < 1 {
				c = 1
			}
			var delta core.Delta
			stride := n / c
			for i := 0; i < c; i++ {
				r := records[i*stride]
				delta.Remove = append(delta.Remove, r)
				delta.Append = append(delta.Append, r)
			}
			var stats core.RepublishStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, s, err := st.Apply(delta)
				if err != nil {
					b.Fatal(err)
				}
				stats = s
			}
			b.ReportMetric(float64(stats.DirtyShards), "dirty-shards")
			b.ReportMetric(float64(stats.TotalShards), "total-shards")
		})
	}
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Anonymize(d, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Query-serving benchmarks: scan vs inverted index ---

// benchQueryWorkload publishes a many-cluster dataset and draws a fixed mix
// of query itemsets (singletons, pairs, triples) from its domain — the
// serving workload of Section 6 / the disassod service.
func benchQueryWorkload(b *testing.B) (*core.Anonymized, []dataset.Record) {
	b.Helper()
	_, a := benchPublication(b)
	rng := rand.New(rand.NewPCG(17, 18))
	var queries []dataset.Record
	for i := 0; i < 256; i++ {
		size := 1 + i%3
		terms := make([]dataset.Term, size)
		for j := range terms {
			terms[j] = dataset.Term(rng.IntN(1000))
		}
		queries = append(queries, dataset.NewRecord(terms...))
	}
	return a, queries
}

// benchPublication returns benchDataset and its anonymization at k=5, m=2:
// 1,626 leaves in 529 top-level clusters, the widest joint 208 leaves.
func benchPublication(b *testing.B) (*dataset.Dataset, *core.Anonymized) {
	b.Helper()
	d := benchDataset(b)
	a, err := core.Anonymize(d, core.Options{K: 5, M: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return d, a
}

// BenchmarkSupportWide serves 2–3-term itemsets drawn from random original
// records, the read-wide workload's shape. Their terms co-occur, so each
// itemset reaches the joint clusters holding its record; the uniform terms
// of BenchmarkSupportIndexed rarely do. warm times the indexed evaluation of
// one itemset; cold times NewRecoveredEstimator plus its first multi-term
// itemset, which pays the lazy per-node build a recovered snapshot defers.
func BenchmarkSupportWide(b *testing.B) {
	d, a := benchPublication(b)
	rng := rand.New(rand.NewPCG(19, 20))
	itemsets := make([]dataset.Record, 0, 256)
	for len(itemsets) < cap(itemsets) {
		r := d.Records[rng.IntN(len(d.Records))]
		if len(r) < 2 {
			continue
		}
		n := min(2+rng.IntN(2), len(r))
		terms := make([]dataset.Term, 0, n)
		for _, i := range rng.Perm(len(r))[:n] {
			terms = append(terms, r[i])
		}
		itemsets = append(itemsets, dataset.NewRecord(terms...))
	}
	est := query.NewEstimator(a)
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			est.Support(itemsets[i%len(itemsets)])
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := query.NewRecoveredEstimator(a, est.Index(), est.Singles())
			rec.Support(itemsets[i%len(itemsets)])
		}
	})
}

// BenchmarkSupportScan is the baseline: every query walks every cluster.
func BenchmarkSupportScan(b *testing.B) {
	a, queries := benchQueryWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query.Support(a, queries[i%len(queries)])
	}
}

// BenchmarkSupportIndexed serves the identical workload through the
// inverted index (estimates are bit-identical to the scan; the property
// tests in internal/query assert it). The index is built once outside the
// timer, as a long-running service would.
func BenchmarkSupportIndexed(b *testing.B) {
	a, queries := benchQueryWorkload(b)
	est := query.NewEstimator(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Support(queries[i%len(queries)])
	}
}

// BenchmarkSupportIndexBuild measures the one-time cost the indexed path
// pays, query.NewEstimator: the inverted index, the node-level term index
// and the singleton table. Every published or delta snapshot pays it. The
// forests, all at k=5, m=2, seed 1:
//
//   - query20k: benchPublication's, 20k records over a 1k-term domain;
//   - paper20k and read50k: BenchmarkAnonymizeGlobal's one-shard publishes,
//     which the end-to-end benchmark's publish and read workloads serve;
//   - live20k: the paper20k records at a 2,000-record shard cut, the
//     publish workload's delta-updated dataset.
func BenchmarkSupportIndexBuild(b *testing.B) {
	anonymize := func(b *testing.B, records []dataset.Record, cut int) *core.Anonymized {
		a, err := core.Anonymize(dataset.FromRecords(records), core.Options{K: 5, M: 2, Seed: 1, MaxShardRecords: cut})
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	for _, shape := range []struct {
		name string
		gen  func(*testing.B) *core.Anonymized
	}{
		{"query20k", func(b *testing.B) *core.Anonymized { _, a := benchPublication(b); return a }},
		{"paper20k", func(b *testing.B) *core.Anonymized { return anonymize(b, benchQuest50k(b)[:20_000], 0) }},
		{"read50k", func(b *testing.B) *core.Anonymized { return anonymize(b, benchQuest50k(b), 0) }},
		{"live20k", func(b *testing.B) *core.Anonymized { return anonymize(b, benchQuest50k(b)[:20_000], 2_000) }},
	} {
		b.Run(shape.name, func(b *testing.B) {
			a := shape.gen(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query.NewEstimator(a)
			}
		})
	}
}

func BenchmarkReconstruct(b *testing.B) {
	d := benchDataset(b)
	a, err := core.Anonymize(d, core.Options{K: 5, M: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reconstruct.Sample(a, rng)
	}
}

func BenchmarkTopKMine(b *testing.B) {
	d := benchDataset(b)
	// K is kept below the domain size: asking for more itemsets than there
	// are terms drives the adaptive threshold to minimum support 1, which
	// measures the pathological mining case instead of the metric workload.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		itemset.TopK(d.Records, 500, 2)
	}
}

// Baseline comparators, on the same workload as the core benches.

func BenchmarkDiffPart(b *testing.B) {
	d := benchDataset(b)
	h, err := hierarchy.New(1000, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diffpriv.Anonymize(d, h, diffpriv.Config{Epsilon: 1.0, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAprioriGeneralization(b *testing.B) {
	d := benchDataset(b)
	h, err := hierarchy.New(1000, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := generalization.Anonymize(d, h, 5, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuestGenerate(b *testing.B) {
	cfg := quest.DefaultConfig()
	cfg.NumTransactions = 10_000
	cfg.DomainSize = 1_000
	cfg.Seed = 7
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := quest.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		g.Generate()
	}
}

func BenchmarkStandInGenerate(b *testing.B) {
	spec := realdata.POS.Scaled(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Generate()
	}
}

func BenchmarkFacadeAnonymize(b *testing.B) {
	cfg := disasso.DefaultQuestConfig()
	cfg.NumTransactions = 5_000
	cfg.DomainSize = 500
	cfg.Seed = 3
	d, err := disasso.GenerateQuest(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disasso.Anonymize(d, disasso.Options{K: 5, M: 2, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
