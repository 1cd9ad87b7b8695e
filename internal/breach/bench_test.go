package breach

import (
	"testing"

	"disasso/internal/core"
	"disasso/internal/dataset"
)

// benchInputs are the audit benchmark workloads: Quest market-basket data at
// the density profile of the paper's evaluation, cut into 1k-record shards;
// the same generator at the shape of the end-to-end publish-safe workload
// (10k records over a 5k-term domain, average length 10, one unsharded
// publication, so top-level nodes grow to hundreds of leaves); and the dense
// skewed synthetic profile the property tests use, scaled up — dense data is
// where covers (and therefore repairs) concentrate.
func benchInputs(b *testing.B) []struct {
	name string
	d    *dataset.Dataset
} {
	b.Helper()
	return []struct {
		name string
		d    *dataset.Dataset
	}{
		{"quest", questDataset(b, 5_000, 400, 6, 7)},
		{"quest10k-unsharded", questDataset(b, 10_000, 5_000, 10, 1)},
		{"dense", genDataset(propConfig{k: 2, m: 2, maxCluster: 5, records: 400, domain: 24, maxLen: 6, seed: 505})},
	}
}

func benchOptions(name string) core.Options {
	switch name {
	case "dense":
		return core.Options{K: 2, M: 2, MaxClusterSize: 5, Seed: 505, MaxShardRecords: 200}
	case "quest10k-unsharded":
		return core.Options{K: 5, M: 2, Seed: 1}
	}
	return core.Options{K: 4, M: 2, Seed: 7, MaxShardRecords: 1_000}
}

// BenchmarkBreachAudit times the cover-problem detector over a full plain
// publication and attaches the breach rate it finds: findings plus the
// fraction of clusters breached — the "before repair" numbers of CI's
// bench job.
func BenchmarkBreachAudit(b *testing.B) {
	for _, in := range benchInputs(b) {
		name, d := in.name, in.d
		b.Run(name, func(b *testing.B) {
			a, err := core.Anonymize(d, benchOptions(name))
			if err != nil {
				b.Fatal(err)
			}
			var rep *Report
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep = Audit(a)
			}
			b.ReportMetric(float64(len(rep.Findings)), "findings")
			b.ReportMetric(float64(rep.BreachedClusters)/float64(rep.Clusters), "breached-frac")
		})
	}
}

// BenchmarkSafeRepair times a full SafeDisassociation publication (pipeline
// plus repair) against the plain pipeline's breach count: breaches-before is
// what the repair had to fix, breaches-after must be zero.
func BenchmarkSafeRepair(b *testing.B) {
	for _, in := range benchInputs(b) {
		name, d := in.name, in.d
		b.Run(name, func(b *testing.B) {
			opts := benchOptions(name)
			plain, err := core.Anonymize(d, opts)
			if err != nil {
				b.Fatal(err)
			}
			before := len(Audit(plain).Findings)
			opts.SafeDisassociation = true
			var safe *core.Anonymized
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if safe, err = core.Anonymize(d, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := len(Audit(safe).Findings)
			if after != 0 {
				b.Fatalf("safe publication still has %d breaches", after)
			}
			b.ReportMetric(float64(before), "breaches-before")
			b.ReportMetric(float64(after), "breaches-after")
		})
	}
}
