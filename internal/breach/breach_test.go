package breach

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"disasso/internal/anonymity"
	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/quest"
)

// propConfig is one random-dataset configuration of the property sweep. The
// acceptance bar is ≥ 4 distinct configs; cluster sizes stay small enough
// that the oracle's factorial enumeration terminates for most pairs.
type propConfig struct {
	name            string
	k, m            int
	maxCluster      int
	records, domain int
	maxLen          int
	seed            uint64
}

var propConfigs = []propConfig{
	{name: "k2m2", k: 2, m: 2, maxCluster: 6, records: 40, domain: 14, maxLen: 4, seed: 101},
	{name: "k3m2", k: 3, m: 2, maxCluster: 7, records: 60, domain: 18, maxLen: 5, seed: 202},
	{name: "k3m3", k: 3, m: 3, maxCluster: 8, records: 50, domain: 12, maxLen: 4, seed: 303},
	{name: "k4m2", k: 4, m: 2, maxCluster: 9, records: 70, domain: 20, maxLen: 5, seed: 404},
	{name: "k2m2-dense", k: 2, m: 2, maxCluster: 5, records: 30, domain: 8, maxLen: 6, seed: 505},
}

// genDataset builds a small random dataset with a skewed term distribution
// (squaring a uniform variate favors low ids), which reliably produces the
// frequent in-chunk terms the cover problem feeds on.
func genDataset(cfg propConfig) *dataset.Dataset {
	rng := rand.New(rand.NewPCG(cfg.seed, 0xDA7A))
	records := make([]dataset.Record, 0, cfg.records)
	for len(records) < cfg.records {
		length := 1 + rng.IntN(cfg.maxLen)
		terms := make([]dataset.Term, 0, length)
		for i := 0; i < length; i++ {
			u := rng.Float64()
			terms = append(terms, dataset.Term(float64(cfg.domain)*u*u))
		}
		r := dataset.NewRecord(terms...)
		if len(r) > 0 {
			records = append(records, r)
		}
	}
	return dataset.FromRecords(records)
}

func (cfg propConfig) options() core.Options {
	return core.Options{K: cfg.k, M: cfg.m, MaxClusterSize: cfg.maxCluster, Parallel: 1, Seed: cfg.seed}
}

// questDataset generates Quest market-basket records.
func questDataset(tb testing.TB, records, domain int, avgLen float64, seed uint64) *dataset.Dataset {
	tb.Helper()
	cfg := quest.DefaultConfig()
	cfg.NumTransactions = records
	cfg.DomainSize = domain
	cfg.AvgTransLen = avgLen
	cfg.Seed = seed
	g, err := quest.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return g.Generate()
}

// safePublish anonymizes d with SafeDisassociation on, repairing through the
// reference whole-node rescan when rescan is set and through the incremental
// engine otherwise, and returns the publication with its binary encoding.
func safePublish(tb testing.TB, d *dataset.Dataset, opts core.Options, rescan bool) (*core.Anonymized, []byte) {
	tb.Helper()
	defer core.UseSafeRepairRescan(rescan)()
	opts.SafeDisassociation = true
	a, err := core.Anonymize(d, opts)
	if err != nil {
		tb.Fatalf("safe anonymize (rescan=%v): %v", rescan, err)
	}
	var buf bytes.Buffer
	if err := core.WriteBinary(&buf, a); err != nil {
		tb.Fatal(err)
	}
	return a, buf.Bytes()
}

// TestDetectorMatchesOracle proves the fast detector ≡ the brute-force
// reconstruction-enumeration oracle on every property config: every
// reported breach re-derives with the exact same probability, and every
// breach the oracle finds (within budget) is reported. crossCheckNode
// panics on any divergence, which the test surfaces as a failure.
func TestDetectorMatchesOracle(t *testing.T) {
	totalFindings := 0
	for _, cfg := range propConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			a, err := core.Anonymize(genDataset(cfg), cfg.options())
			if err != nil {
				t.Fatalf("anonymize: %v", err)
			}
			for i, n := range a.Clusters {
				brs := core.NodeBreaches(n, a.K)
				totalFindings += len(brs)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("cluster %d: oracle disagrees with detector: %v", i, r)
						}
					}()
					crossCheckNode(n, a.K, brs)
				}()
			}
		})
	}
	// The sweep must exercise real breaches, not vacuously agree on clean
	// publications.
	if totalFindings == 0 {
		t.Fatalf("property sweep found no breaches across %d configs; the configs no longer exercise the detector", len(propConfigs))
	}
}

// TestRepairedBreachFree proves the tentpole acceptance property on every
// config and worker count: a SafeDisassociation publication audits clean,
// still passes the independent k^m verifier, and is byte-identical across
// worker counts. The unrepaired publication must show a positive breach
// rate somewhere, or the repair proof is vacuous.
func TestRepairedBreachFree(t *testing.T) {
	breachedBefore := 0
	for _, cfg := range propConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			d := genDataset(cfg)
			plain, err := core.Anonymize(d, cfg.options())
			if err != nil {
				t.Fatalf("anonymize: %v", err)
			}
			breachedBefore += len(Audit(plain).Findings)

			var byWorkers []*core.Anonymized
			for _, workers := range []int{1, 4} {
				opts := cfg.options()
				opts.SafeDisassociation = true
				opts.Parallel = workers
				repaired, err := core.Anonymize(d, opts)
				if err != nil {
					t.Fatalf("anonymize (safe, %d workers): %v", workers, err)
				}
				rep := Audit(repaired)
				if !rep.Clean() {
					t.Fatalf("%d workers: repaired publication still has %d breaches; worst %s -> %v with P=%d/%d",
						workers, len(rep.Findings), rep.Findings[0].Where, rep.Findings[0].Learned,
						rep.Findings[0].Num, rep.Findings[0].Den)
				}
				if vr := anonymity.Verify(repaired); !vr.OK() {
					t.Fatalf("%d workers: repaired publication fails the k^m verifier: %v", workers, vr.Err())
				}
				if vr := anonymity.VerifyAgainstOriginal(repaired, d); !vr.OK() {
					t.Fatalf("%d workers: repaired publication diverges from original: %v", workers, vr.Err())
				}
				byWorkers = append(byWorkers, repaired)
			}
			if !reflect.DeepEqual(byWorkers[0], byWorkers[1]) {
				t.Fatalf("repaired publication differs between 1 and 4 workers")
			}
		})
	}
	if breachedBefore == 0 {
		t.Fatalf("no config produced a breached publication before repair; the repair property is vacuous")
	}
}

// TestIncrementalRepairMatchesRescan proves the incremental repair engine ≡
// the reference whole-node rescan: byte-identical forests on every property
// config at 1 and 4 workers, and on Quest data both unsharded and sharded.
// Unsharded, the Quest nodes grow to 75 leaves, where the incremental
// state's subtree and ancestor searches differ most from a full scan; the
// two Quest publications take 315 and 310 repair steps, 4 and 5 of them
// merges and 137 and 7 shared-chunk demotions.
func TestIncrementalRepairMatchesRescan(t *testing.T) {
	type equivCase struct {
		name string
		d    *dataset.Dataset
		opts core.Options
	}
	var cases []equivCase
	for _, cfg := range propConfigs {
		d := genDataset(cfg)
		for _, workers := range []int{1, 4} {
			opts := cfg.options()
			opts.Parallel = workers
			cases = append(cases, equivCase{fmt.Sprintf("%s/workers=%d", cfg.name, workers), d, opts})
		}
	}
	q := questDataset(t, 2_000, 2_000, 10, 1)
	cases = append(cases,
		equivCase{"quest/unsharded", q, core.Options{K: 5, M: 2, Seed: 3}},
		equivCase{"quest/sharded", q, core.Options{K: 5, M: 2, Seed: 3, MaxShardRecords: 400, Parallel: 4}},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, err := core.Anonymize(c.d, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			// Every case must make the engines repair something, or the
			// equivalence is vacuous.
			if len(Audit(plain).Findings) == 0 {
				t.Fatal("plain publication has no breaches to repair")
			}
			_, inc := safePublish(t, c.d, c.opts, false)
			_, ref := safePublish(t, c.d, c.opts, true)
			if !bytes.Equal(inc, ref) {
				t.Fatalf("incremental repair publishes %d bytes that differ from the rescan's %d", len(inc), len(ref))
			}
		})
	}
}

// TestRepairIsIdempotent re-audits and re-verifies that repairing an
// already-safe publication changes nothing: anonymizing twice with
// SafeDisassociation yields identical forests (the repair consumes no
// randomness when there is nothing to repair).
func TestRepairIsIdempotent(t *testing.T) {
	cfg := propConfigs[1]
	d := genDataset(cfg)
	opts := cfg.options()
	opts.SafeDisassociation = true
	a1, err := core.Anonymize(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := core.Anonymize(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("two safe-disassociation runs over the same input differ")
	}
}

// TestAuditReportShape pins the report bookkeeping: counts, threshold and
// ordering (descending probability, exact comparison).
func TestAuditReportShape(t *testing.T) {
	cfg := propConfigs[4] // the dense config: breaches guaranteed in practice
	a, err := core.Anonymize(genDataset(cfg), cfg.options())
	if err != nil {
		t.Fatal(err)
	}
	rep := Audit(a)
	if rep.K != cfg.k || rep.M != cfg.m {
		t.Fatalf("report carries K=%d M=%d, want %d/%d", rep.K, rep.M, cfg.k, cfg.m)
	}
	if rep.Clusters != len(a.Clusters) {
		t.Fatalf("report counts %d clusters, forest has %d", rep.Clusters, len(a.Clusters))
	}
	if got, want := rep.Threshold, 1/float64(cfg.k); got != want {
		t.Fatalf("threshold %v, want %v", got, want)
	}
	for i := 1; i < len(rep.Findings); i++ {
		a, b := rep.Findings[i-1], rep.Findings[i]
		if a.Num*b.Den < b.Num*a.Den {
			t.Fatalf("findings not sorted by descending probability at %d: %d/%d before %d/%d", i, a.Num, a.Den, b.Num, b.Den)
		}
	}
	for _, f := range rep.Findings {
		if f.Num <= 0 || f.Den <= 0 || f.Num*cfg.k <= f.Den {
			t.Fatalf("finding %+v does not clear the 1/k threshold", f)
		}
		if f.Probability != float64(f.Num)/float64(f.Den) {
			t.Fatalf("finding %+v probability disagrees with Num/Den", f)
		}
	}
	if len(rep.Findings) > 0 && rep.MaxProbability != rep.Findings[0].Probability {
		t.Fatalf("MaxProbability %v != worst finding %v", rep.MaxProbability, rep.Findings[0].Probability)
	}
	clean := &Report{}
	if !clean.Clean() {
		t.Fatal("empty report must be clean")
	}
}
