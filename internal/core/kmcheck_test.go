package core

import (
	"math/rand/v2"
	"testing"

	"disasso/internal/dataset"
	"disasso/internal/itemset"
)

func TestComboKeyDistinctness(t *testing.T) {
	buf := make([]byte, 0, 64)
	a, buf := comboKey(buf, dataset.NewRecord(1, 3), 2)
	b, buf := comboKey(buf, dataset.NewRecord(1, 2), 3)
	if a != b {
		t.Error("comboKey must be order-independent: {1,3}+2 vs {1,2}+3")
	}
	c, buf := comboKey(buf, dataset.NewRecord(1), 2)
	d, buf := comboKey(buf, dataset.NewRecord(12), 0)
	if c == d {
		t.Error("distinct combos share a key")
	}
	// extra greater than all combo terms
	e, buf := comboKey(buf, dataset.NewRecord(1, 2), 9)
	f, _ := comboKey(buf, dataset.NewRecord(2, 9), 1)
	if e != f {
		t.Error("comboKey must sort the extra term into place")
	}
}

// TestComboKeyThreadsBuffer pins the regression where comboKey's grown
// buffer was discarded, reallocating on every oversized call.
func TestComboKeyThreadsBuffer(t *testing.T) {
	var buf []byte
	_, buf = comboKey(buf, dataset.NewRecord(1, 2, 3, 4, 5, 6, 7), 8)
	if cap(buf) < 8*4 {
		t.Fatalf("comboKey did not return the grown buffer, cap = %d", cap(buf))
	}
	before := cap(buf)
	_, buf = comboKey(buf, dataset.NewRecord(1, 2, 3), 4)
	if cap(buf) != before {
		t.Errorf("comboKey reallocated a buffer that was large enough: cap %d -> %d", before, cap(buf))
	}
}

func TestKMCheckerFirstTermAlwaysAdds(t *testing.T) {
	// s(t) ≥ k guarantees the singleton chunk is k^m-anonymous (Section 4).
	records := []dataset.Record{
		dataset.NewRecord(1), dataset.NewRecord(1), dataset.NewRecord(1),
	}
	c := newKMCheckerOnIndex(3, 2, buildClusterIndex(records))
	if !c.TryAdd(1) {
		t.Fatal("first term with support ≥ k rejected")
	}
	if !c.Domain().Equal(dataset.NewRecord(1)) {
		t.Errorf("domain = %v", c.Domain())
	}
}

func TestKMCheckerRejectsInfrequentPair(t *testing.T) {
	// Terms 1 and 2 each appear 3 times but co-occur only twice.
	records := []dataset.Record{
		dataset.NewRecord(1, 2),
		dataset.NewRecord(1, 2),
		dataset.NewRecord(1),
		dataset.NewRecord(2),
	}
	c := newKMCheckerOnIndex(3, 2, buildClusterIndex(records))
	if !c.TryAdd(1) {
		t.Fatal("term 1 rejected")
	}
	if c.TryAdd(2) {
		t.Error("pair {1,2} with support 2 < 3 accepted")
	}
	if !c.Domain().Equal(dataset.NewRecord(1)) {
		t.Errorf("failed TryAdd must not modify the domain, got %v", c.Domain())
	}
}

func TestKMCheckerAcceptsZeroCooccurrence(t *testing.T) {
	// Lemma 1: a combination may appear ≥ k times or not at all.
	records := []dataset.Record{
		dataset.NewRecord(1), dataset.NewRecord(1), dataset.NewRecord(1),
		dataset.NewRecord(2), dataset.NewRecord(2), dataset.NewRecord(2),
	}
	c := newKMCheckerOnIndex(3, 2, buildClusterIndex(records))
	if !c.TryAdd(1) || !c.TryAdd(2) {
		t.Error("disjoint terms with support ≥ k must coexist in a chunk")
	}
}

func TestKMCheckerM1(t *testing.T) {
	// m = 1: only singleton supports matter.
	records := []dataset.Record{
		dataset.NewRecord(1, 2), dataset.NewRecord(1, 2), dataset.NewRecord(1),
	}
	c := newKMCheckerOnIndex(2, 1, buildClusterIndex(records))
	if !c.TryAdd(1) || !c.TryAdd(2) {
		t.Error("m=1 must ignore pair supports")
	}
	c = newKMCheckerOnIndex(3, 1, buildClusterIndex(records))
	if !c.TryAdd(1) {
		t.Error("term with support 3 rejected at k=3")
	}
	if c.TryAdd(2) {
		t.Error("term with support 2 accepted at k=3")
	}
}

func TestKMCheckerM3(t *testing.T) {
	// Triple {1,2,3} appears twice; pairs appear 3 times.
	records := []dataset.Record{
		dataset.NewRecord(1, 2, 3),
		dataset.NewRecord(1, 2, 3),
		dataset.NewRecord(1, 2),
		dataset.NewRecord(1, 3),
		dataset.NewRecord(2, 3),
	}
	c := newKMCheckerOnIndex(3, 3, buildClusterIndex(records))
	if !c.TryAdd(1) || !c.TryAdd(2) {
		t.Fatal("setup failed")
	}
	if c.TryAdd(3) {
		t.Error("triple with support 2 < 3 accepted at m=3")
	}
	c2 := newKMCheckerOnIndex(2, 3, buildClusterIndex(records))
	if !c2.TryAdd(1) || !c2.TryAdd(2) || !c2.TryAdd(3) {
		t.Error("k=2 must accept the triple (support 2)")
	}
}

func TestKMCheckerMatchesFullCheck(t *testing.T) {
	// Property: whenever the incremental checker accepts a domain, the
	// from-scratch verifier agrees, across random record bags.
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 100; trial++ {
		var records []dataset.Record
		n := 10 + rng.IntN(20)
		for i := 0; i < n; i++ {
			terms := make([]dataset.Term, 1+rng.IntN(4))
			for j := range terms {
				terms[j] = dataset.Term(rng.IntN(6))
			}
			records = append(records, dataset.NewRecord(terms...))
		}
		k := 2 + rng.IntN(3)
		m := 1 + rng.IntN(3)
		c := newKMCheckerOnIndex(k, m, buildClusterIndex(records))
		for term := dataset.Term(0); term < 6; term++ {
			if itemset.SupportOf(records, dataset.NewRecord(term)) < k {
				continue
			}
			c.TryAdd(term)
		}
		dom := c.Domain()
		if len(dom) == 0 {
			continue
		}
		// Project records and run the exhaustive check.
		var subrecords []dataset.Record
		for _, r := range records {
			if p := r.Intersect(dom); len(p) > 0 {
				subrecords = append(subrecords, p)
			}
		}
		if !IsChunkKMAnonymous(dom, subrecords, k, m) {
			t.Fatalf("trial %d: incremental checker accepted a non-%d^%d-anonymous domain %v", trial, k, m, dom)
		}
	}
}

func TestKAnonChecker(t *testing.T) {
	records := []dataset.Record{
		dataset.NewRecord(1, 2), dataset.NewRecord(1, 2), dataset.NewRecord(1, 2),
		dataset.NewRecord(1), dataset.NewRecord(1), dataset.NewRecord(1),
	}
	c := newKAnonCheckerOnIndex(3, buildClusterIndex(records))
	if !c.TryAdd(1) {
		t.Fatal("singleton domain {1} with 6 identical subrecords rejected")
	}
	// Adding 2 splits the projections into {1,2}×3 and {1}×3 — still 3-anonymous.
	if !c.TryAdd(2) {
		t.Error("domain {1,2} with groups of 3 rejected")
	}

	// Now a bag where adding term 2 creates a group of size 1.
	records = append(records, dataset.NewRecord(2))
	c = newKAnonCheckerOnIndex(3, buildClusterIndex(records))
	if !c.TryAdd(1) {
		t.Fatal("setup")
	}
	if c.TryAdd(2) {
		t.Error("group {2}×1 < 3 accepted")
	}
	if !c.Domain().Equal(dataset.NewRecord(1)) {
		t.Errorf("failed TryAdd must not modify the domain, got %v", c.Domain())
	}
}

func TestIsChunkKAnonymous(t *testing.T) {
	dom := dataset.NewRecord(1, 2)
	ok := []dataset.Record{
		dataset.NewRecord(1, 2), dataset.NewRecord(1, 2),
		dataset.NewRecord(1), dataset.NewRecord(1),
	}
	if !IsChunkKAnonymous(dom, ok, 2) {
		t.Error("2-anonymous chunk rejected")
	}
	bad := append(ok, dataset.NewRecord(2))
	if IsChunkKAnonymous(dom, bad, 2) {
		t.Error("chunk with a singleton group accepted")
	}
	if !IsChunkKAnonymous(dom, nil, 5) {
		t.Error("empty chunk must be trivially k-anonymous")
	}
}

func TestInsertTerm(t *testing.T) {
	r := dataset.NewRecord(2, 5)
	r = insertTerm(r, 3)
	if !r.Equal(dataset.NewRecord(2, 3, 5)) {
		t.Errorf("insert middle: %v", r)
	}
	r = insertTerm(r, 1)
	r = insertTerm(r, 9)
	if !r.Equal(dataset.NewRecord(1, 2, 3, 5, 9)) {
		t.Errorf("insert ends: %v", r)
	}
	r = insertTerm(r, 3) // duplicate
	if !r.Equal(dataset.NewRecord(1, 2, 3, 5, 9)) {
		t.Errorf("duplicate insert changed record: %v", r)
	}
}
