package reconstruct

import (
	"math/rand/v2"
	"testing"

	"disasso/internal/core"
	"disasso/internal/dataset"
)

func rec(terms ...dataset.Term) dataset.Record { return dataset.NewRecord(terms...) }

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0xABCD)) }

// randomDataset builds a random sparse dataset for round-trip tests.
func randomDataset(rng *rand.Rand, n, domain, maxLen int) *dataset.Dataset {
	var records []dataset.Record
	for i := 0; i < n; i++ {
		terms := make([]dataset.Term, 1+rng.IntN(maxLen))
		for j := range terms {
			terms[j] = dataset.Term(rng.IntN(domain))
		}
		records = append(records, rec(terms...))
	}
	return dataset.FromRecords(records)
}

func anonymizeOrDie(t *testing.T, d *dataset.Dataset, k, m int) *core.Anonymized {
	t.Helper()
	a, err := core.Anonymize(d, core.Options{K: k, M: m, Seed: 11})
	if err != nil {
		t.Fatalf("Anonymize: %v", err)
	}
	return a
}

func TestSamplePreservesCardinality(t *testing.T) {
	d := randomDataset(testRNG(1), 200, 30, 5)
	a := anonymizeOrDie(t, d, 3, 2)
	r := Sample(a, testRNG(2))
	if r.Len() != d.Len() {
		t.Fatalf("reconstruction has %d records, original %d", r.Len(), d.Len())
	}
}

func TestSampleNoEmptyRecords(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		d := randomDataset(testRNG(seed+10), 150, 25, 4)
		a := anonymizeOrDie(t, d, 3, 2)
		r := Sample(a, testRNG(seed))
		if err := r.Validate(); err != nil {
			t.Fatalf("seed %d: invalid reconstruction: %v", seed, err)
		}
	}
}

func TestSampleDomainMatchesOriginal(t *testing.T) {
	d := randomDataset(testRNG(3), 200, 30, 5)
	a := anonymizeOrDie(t, d, 3, 2)
	r := Sample(a, testRNG(4))
	got := dataset.NewRecord(r.Domain()...)
	want := dataset.NewRecord(d.Domain()...)
	if !got.Equal(want) {
		t.Errorf("reconstruction domain differs:\n got %v\nwant %v", got, want)
	}
}

// The defining property of a reconstruction: projecting it back onto each
// cluster's chunk domains must reproduce the published chunks exactly (as
// multisets of non-empty subrecords). This is D' ∈ I(D_A) for record chunks.
func TestSampleProjectsBackToChunks(t *testing.T) {
	d := randomDataset(testRNG(5), 250, 40, 5)
	a := anonymizeOrDie(t, d, 3, 2)
	r := Sample(a, testRNG(6))

	// Walk top-level nodes, tracking the record ranges of each leaf.
	off := 0
	for _, node := range a.Clusters {
		for _, leaf := range node.Leaves(nil) {
			slice := r.Records[off : off+leaf.Size]
			for _, c := range leaf.RecordChunks {
				want := make(map[string]int)
				for _, sr := range c.Subrecords {
					want[sr.Key()]++
				}
				got := make(map[string]int)
				for _, record := range slice {
					if p := record.Intersect(c.Domain); len(p) > 0 {
						got[p.Key()]++
					}
				}
				for key, n := range want {
					if got[key] != n {
						t.Fatalf("chunk %v: projection %q has %d copies, published %d",
							c.Domain, key, got[key], n)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("chunk %v: reconstruction adds projections: got %v want %v", c.Domain, got, want)
				}
			}
			off += leaf.Size
		}
	}
	if off != r.Len() {
		t.Fatalf("walked %d records, reconstruction has %d", off, r.Len())
	}
}

func TestSampleTermChunkTermsAppear(t *testing.T) {
	d := randomDataset(testRNG(7), 200, 50, 4)
	a := anonymizeOrDie(t, d, 4, 2)
	r := Sample(a, testRNG(8))
	sup := r.Supports()
	for term := range a.TermChunkTerms() {
		if sup[term] == 0 {
			t.Errorf("term-chunk term %d absent from reconstruction", term)
		}
	}
}

func TestSampleManyIndependent(t *testing.T) {
	d := randomDataset(testRNG(9), 300, 30, 5)
	a := anonymizeOrDie(t, d, 3, 2)
	rs := SampleMany(a, 3, testRNG(10))
	if len(rs) != 3 {
		t.Fatalf("got %d reconstructions", len(rs))
	}
	// Different samples should differ somewhere (astronomically likely).
	same := true
	for i := range rs[0].Records {
		if !rs[0].Records[i].Equal(rs[1].Records[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("two samples are identical — shuffling is broken")
	}
	for _, r := range rs {
		if err := r.Validate(); err != nil {
			t.Fatalf("invalid sample: %v", err)
		}
	}
}

func TestSampleSupportsCloseToOriginal(t *testing.T) {
	// Terms in record chunks keep exact supports; overall per-term supports
	// in a reconstruction must never exceed the original by more than the
	// term-chunk inflation (terms materialized once per term chunk).
	d := randomDataset(testRNG(12), 400, 25, 5)
	a := anonymizeOrDie(t, d, 3, 2)
	r := Sample(a, testRNG(13))
	orig := d.Supports()
	got := r.Supports()
	lower := a.LowerBoundSupports()
	for term, s := range got {
		if s < lower[term] {
			t.Errorf("term %d: reconstructed support %d below lower bound %d", term, s, lower[term])
		}
		if s > orig[term] {
			// Padding empty slots can add at most a handful of extras.
			if s > orig[term]+3 {
				t.Errorf("term %d: reconstructed support %d far above original %d", term, s, orig[term])
			}
		}
	}
}

func TestConflictsZeroOnAnonymizerOutput(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		d := randomDataset(testRNG(seed+40), 300, 30, 5)
		a := anonymizeOrDie(t, d, 3, 2)
		if n := unplaceable(a); n != 0 {
			t.Errorf("seed %d: %d unplaceable shared subrecords", seed, n)
		}
	}
}

// unplaceable counts how many shared subrecords of the given anonymized
// dataset have no conflict-free slot at all (every slot's leaf record-chunk
// domains intersect them). The anonymizer's own output has zero such
// subrecords; hand-built inputs may not.
func unplaceable(a *core.Anonymized) int {
	count := 0
	for _, node := range a.Clusters {
		leaves := node.Leaves(nil)
		total := 0
		for _, l := range leaves {
			total += l.Size
		}
		slotDomain := make([]dataset.Record, total)
		off := 0
		for _, leaf := range leaves {
			var domUnion dataset.Record
			for _, c := range leaf.RecordChunks {
				domUnion = domUnion.Union(c.Domain)
			}
			for i := off; i < off+leaf.Size; i++ {
				slotDomain[i] = domUnion
			}
			off += leaf.Size
		}
		var walk func(n *core.ClusterNode, lo int) int
		walk = func(n *core.ClusterNode, lo int) int {
			if n.IsLeaf() {
				return n.Simple.Size
			}
			covered := 0
			for _, child := range n.Children {
				covered += walk(child, lo+covered)
			}
			for _, c := range n.SharedChunks {
				for _, sr := range c.Subrecords {
					ok := false
					for i := lo; i < lo+covered; i++ {
						if len(sr.Intersect(slotDomain[i])) == 0 {
							ok = true
							break
						}
					}
					if !ok {
						count++
					}
				}
			}
			return covered
		}
		walk(node, 0)
	}
	return count
}

func TestSampleFigure2bJoint(t *testing.T) {
	// Hand-built Figure 3 joint cluster: reconstruction must produce 10
	// records, with the shared chunk's subrecords spread across them.
	const (
		itunes dataset.Term = iota
		flu
		madonna
		ikea
		ruby
		viagra
		audiA4
		sonyTV
		iphoneSDK
		digitalCam
		panicDis
		playboy
	)
	p1 := &core.Cluster{
		Size: 5,
		RecordChunks: []core.Chunk{
			{Domain: rec(itunes, flu, madonna), Subrecords: []dataset.Record{
				rec(itunes, flu, madonna), rec(madonna, flu), rec(itunes, madonna),
				rec(itunes, flu), rec(itunes, flu, madonna)}},
			{Domain: rec(audiA4, sonyTV), Subrecords: []dataset.Record{
				rec(audiA4, sonyTV), rec(audiA4, sonyTV), rec(audiA4, sonyTV)}},
		},
		TermChunk: rec(viagra),
	}
	p2 := &core.Cluster{
		Size: 5,
		RecordChunks: []core.Chunk{
			{Domain: rec(madonna, iphoneSDK, digitalCam), Subrecords: []dataset.Record{
				rec(madonna, digitalCam), rec(iphoneSDK, madonna),
				rec(iphoneSDK, digitalCam, madonna), rec(iphoneSDK, digitalCam),
				rec(iphoneSDK, digitalCam, madonna)}},
		},
		TermChunk: rec(panicDis, playboy),
	}
	joint := &core.ClusterNode{
		Children: []*core.ClusterNode{{Simple: p1}, {Simple: p2}},
		SharedChunks: []core.Chunk{{
			Domain: rec(ikea, ruby),
			Subrecords: []dataset.Record{
				rec(ikea, ruby), rec(ruby), rec(ikea), rec(ikea, ruby), rec(ikea, ruby)},
		}},
	}
	a := &core.Anonymized{K: 3, M: 2, Clusters: []*core.ClusterNode{joint}}
	r := Sample(a, testRNG(14))
	if r.Len() != 10 {
		t.Fatalf("reconstruction has %d records", r.Len())
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	sup := r.Supports()
	if sup[ikea] != 4 || sup[ruby] != 4 {
		t.Errorf("shared-chunk supports ikea=%d ruby=%d, want 4 and 4", sup[ikea], sup[ruby])
	}
	if sup[viagra] < 1 || sup[panicDis] < 1 || sup[playboy] < 1 {
		t.Error("term-chunk terms missing")
	}
}
