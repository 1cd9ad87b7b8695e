package reconstruct

import (
	"math/rand/v2"
	"testing"

	"disasso/internal/attack"
	"disasso/internal/core"
	"disasso/internal/dataset"
)

// Hand-built publication exercising the augmentation path: the shared chunk
// spans two leaves; leaf A's record-chunk domain conflicts with term 1, so
// every {1}-subrecord must land in leaf B, and with tight slot counts the
// greedy's random probes alone can strand one (forcing a relocation).
func TestAssignSharedAugmentation(t *testing.T) {
	leafA := &core.Cluster{
		Size: 3,
		RecordChunks: []core.Chunk{{
			Domain:     dataset.NewRecord(1, 2),
			Subrecords: []dataset.Record{dataset.NewRecord(1, 2), dataset.NewRecord(1, 2), dataset.NewRecord(1, 2)},
		}},
		TermChunk: dataset.NewRecord(9),
	}
	leafB := &core.Cluster{
		Size: 3,
		RecordChunks: []core.Chunk{{
			Domain:     dataset.NewRecord(5),
			Subrecords: []dataset.Record{dataset.NewRecord(5), dataset.NewRecord(5), dataset.NewRecord(5)},
		}},
		TermChunk: dataset.NewRecord(8),
	}
	joint := &core.ClusterNode{
		Children: []*core.ClusterNode{{Simple: leafA}, {Simple: leafB}},
		SharedChunks: []core.Chunk{{
			Domain: dataset.NewRecord(1),
			// Three {1}-subrecords, exactly leaf B's capacity.
			Subrecords: []dataset.Record{dataset.NewRecord(1), dataset.NewRecord(1), dataset.NewRecord(1)},
		}},
	}
	a := &core.Anonymized{K: 3, M: 2, Clusters: []*core.ClusterNode{joint}}

	for seed := uint64(0); seed < 30; seed++ {
		forcedMerges = 0
		r := Sample(a, rand.New(rand.NewPCG(seed, seed+1)))
		if forcedMerges != 0 {
			t.Fatalf("seed %d: forced merge despite feasible assignment", seed)
		}
		// All three shared {1}-subrecords must land on leaf B's records
		// (slots 3..5), never merging with leaf A's chunk-domain slots.
		count1 := 0
		for i := 3; i < 6; i++ {
			if r.Records[i].Contains(1) {
				count1++
			}
		}
		if count1 != 3 {
			t.Fatalf("seed %d: %d of 3 shared subrecords reached leaf B", seed, count1)
		}
		for i := 0; i < 3; i++ {
			// Leaf A records keep exactly one occurrence of term 1 (their
			// own chunk part).
			if !r.Records[i].Contains(1) || !r.Records[i].Contains(2) {
				t.Fatalf("seed %d: leaf A record %d = %v lost its chunk part", seed, i, r.Records[i])
			}
		}
	}
}

// TestCoverKnowledgeOnRepaired arms the adversary with exactly the itemsets
// the cover-problem detector flags on an unrepaired publication — the anchor
// and learned terms of every breach — and asserts the k^m guarantee on the
// repaired publication for every subset of that knowledge of size up to m.
// This is the end-to-end adversarial reading of safe disassociation: the
// associations that were learnable above 1/k before the repair give a real
// attacker no narrowing power afterwards.
func TestCoverKnowledgeOnRepaired(t *testing.T) {
	rng := rand.New(rand.NewPCG(505, 0xDA7A))
	records := make([]dataset.Record, 0, 40)
	for len(records) < 40 {
		length := 1 + rng.IntN(6)
		terms := make([]dataset.Term, 0, length)
		for i := 0; i < length; i++ {
			u := rng.Float64()
			terms = append(terms, dataset.Term(8*u*u))
		}
		if r := dataset.NewRecord(terms...); len(r) > 0 {
			records = append(records, r)
		}
	}
	d := dataset.FromRecords(records)
	opts := core.Options{K: 2, M: 2, MaxClusterSize: 5, Parallel: 1, Seed: 505}

	plain, err := core.Anonymize(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	breaches := breachesOf(plain)
	if len(breaches) == 0 {
		t.Fatal("dense publication has no breaches; the adversarial sweep would be vacuous")
	}

	opts.SafeDisassociation = true
	repaired, err := core.Anonymize(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if left := breachesOf(repaired); len(left) != 0 {
		t.Fatalf("repair left %d breaches", len(left))
	}
	for _, b := range breaches {
		// Every |S| ≤ m subset of the breach's itemset {Anchor, Learned}.
		for _, knowledge := range []dataset.Record{
			dataset.NewRecord(b.Anchor),
			dataset.NewRecord(b.Learned),
			dataset.NewRecord(b.Anchor, b.Learned),
		} {
			if !attack.GuaranteeHolds(repaired, knowledge, opts.K) {
				t.Errorf("knowledge %v (from breach %s -> %v): only %d candidates on the repaired publication",
					knowledge, b.Where, b.Learned, attack.Candidates(repaired, knowledge))
			}
		}
	}

	// And the repaired publication still reconstructs into valid datasets.
	for seed := uint64(0); seed < 5; seed++ {
		r := Sample(repaired, rand.New(rand.NewPCG(seed, 9)))
		if err := r.Validate(); err != nil {
			t.Fatalf("seed %d: reconstruction of repaired publication invalid: %v", seed, err)
		}
		if r.Len() != d.Len() {
			t.Fatalf("seed %d: reconstruction has %d records, original %d", seed, r.Len(), d.Len())
		}
	}
}

// A hand-built infeasible publication (more conflicting subrecords than
// conflict-free slots) must fall back to merging rather than hang or panic.
func TestAssignSharedInfeasibleFallsBack(t *testing.T) {
	leaf := &core.Cluster{
		Size: 3,
		RecordChunks: []core.Chunk{{
			Domain:     dataset.NewRecord(1),
			Subrecords: []dataset.Record{dataset.NewRecord(1), dataset.NewRecord(1), dataset.NewRecord(1)},
		}},
		TermChunk: dataset.NewRecord(9),
	}
	leafB := &core.Cluster{Size: 1, TermChunk: dataset.NewRecord(8)}
	joint := &core.ClusterNode{
		Children: []*core.ClusterNode{{Simple: leaf}, {Simple: leafB}},
		SharedChunks: []core.Chunk{{
			Domain: dataset.NewRecord(1),
			// Two {1}-subrecords but only one conflict-free slot.
			Subrecords: []dataset.Record{dataset.NewRecord(1), dataset.NewRecord(1)},
		}},
	}
	a := &core.Anonymized{K: 2, M: 2, Clusters: []*core.ClusterNode{joint}}
	forcedMerges = 0
	r := Sample(a, rand.New(rand.NewPCG(4, 4)))
	if forcedMerges == 0 {
		t.Error("expected a forced merge on an infeasible publication")
	}
	if r.Len() != 4 {
		t.Errorf("reconstruction has %d records", r.Len())
	}
	if err := r.Validate(); err != nil {
		t.Errorf("fallback produced an invalid dataset: %v", err)
	}
}

// breachesOf audits every top-level cluster of a publication. Clusters are
// independent (no slot range spans two top-level nodes), so the audit is the
// concatenation of per-node detections.
func breachesOf(a *core.Anonymized) []core.Breach {
	var out []core.Breach
	for _, n := range a.Clusters {
		out = append(out, core.NodeBreaches(n, a.K)...)
	}
	return out
}
