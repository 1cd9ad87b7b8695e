package qindex

import (
	"math/rand/v2"
	"slices"
	"testing"

	"disasso/internal/core"
	"disasso/internal/dataset"
)

func randomAnonymized(t *testing.T, seed uint64, n, domain, k, m int) *core.Anonymized {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xABCD))
	var records []dataset.Record
	for i := 0; i < n; i++ {
		terms := make([]dataset.Term, 1+rng.IntN(5))
		for j := range terms {
			terms[j] = dataset.Term(rng.IntN(domain))
		}
		records = append(records, dataset.NewRecord(terms...))
	}
	a, err := core.Anonymize(dataset.FromRecords(records), core.Options{K: k, M: m, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// bruteOccurrences maps every term to the set of top-level clusters it
// occurs in anywhere — chunk domains, subrecords and term chunks — so the
// oracle does not share Build's shortcut of skipping subrecords.
func bruteOccurrences(a *core.Anonymized) map[dataset.Term]map[int32]bool {
	occ := make(map[dataset.Term]map[int32]bool)
	mark := func(ci int32, terms ...dataset.Term) {
		for _, t := range terms {
			if occ[t] == nil {
				occ[t] = make(map[int32]bool)
			}
			occ[t][ci] = true
		}
	}
	for ci, node := range a.Clusters {
		node.Walk(func(cn *core.ClusterNode) {
			chunks := cn.SharedChunks
			if cn.IsLeaf() {
				chunks = cn.Simple.RecordChunks
				mark(int32(ci), cn.Simple.TermChunk...)
			}
			for _, c := range chunks {
				mark(int32(ci), c.Domain...)
				for _, sr := range c.Subrecords {
					mark(int32(ci), sr...)
				}
			}
		})
	}
	return occ
}

// TestIndexDomainAndLowerBounds checks the rank domain against the
// published domain, and that each term's posting list holds every cluster
// that carries a certain occurrence of it: the Section 6 lower bounds summed
// over the listed clusters alone equal the whole publication's.
func TestIndexDomainAndLowerBounds(t *testing.T) {
	a := randomAnonymized(t, 7, 500, 40, 3, 2)
	ix := Build(a)

	terms, _, _ := ix.Slabs()
	if want := a.Domain(); !slices.Equal(terms, want) {
		t.Fatalf("index domain %v != published domain %v", terms, want)
	}
	want := a.LowerBoundSupports()
	if len(want) != ix.NumTerms() {
		t.Errorf("index has %d terms, LowerBoundSupports has %d", ix.NumTerms(), len(want))
	}
	got := make(map[dataset.Term]int)
	for ci, node := range a.Clusters {
		one := &core.Anonymized{Clusters: []*core.ClusterNode{node}}
		for term, n := range one.LowerBoundSupports() {
			if _, listed := slices.BinarySearch(ix.Postings(ix.MustRank(term)), int32(ci)); listed {
				got[term] += n
			}
		}
	}
	for _, term := range terms {
		if got[term] != want[term] {
			t.Errorf("term %d: lower bound over its posting list %d, whole publication %d", term, got[term], want[term])
		}
	}
}

func TestIndexPostingsMatchBruteForce(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		a := randomAnonymized(t, seed, 400, 30, 3, 2)
		ix := Build(a)
		occ := bruteOccurrences(a)
		if len(occ) != ix.NumTerms() {
			t.Fatalf("seed %d: index has %d terms, publication %d", seed, ix.NumTerms(), len(occ))
		}
		for term, clusters := range occ {
			r, ok := ix.Rank(term)
			if !ok {
				t.Fatalf("seed %d: term %d missing from index", seed, term)
			}
			post := ix.Postings(r)
			if len(post) != len(clusters) {
				t.Fatalf("seed %d term %d: posting list has %d clusters, want %d", seed, term, len(post), len(clusters))
			}
			for i, ci := range post {
				if i > 0 && ci <= post[i-1] {
					t.Fatalf("seed %d term %d: posting list not strictly ascending", seed, term)
				}
				if !clusters[ci] {
					t.Errorf("seed %d term %d: posting for cluster %d, which does not hold the term", seed, term, ci)
				}
			}
		}
	}
}

func TestIntersectClusters(t *testing.T) {
	a := randomAnonymized(t, 11, 600, 25, 3, 2)
	ix := Build(a)
	occ := bruteOccurrences(a)
	rng := rand.New(rand.NewPCG(5, 6))

	check := func(s dataset.Record) {
		t.Helper()
		got := ix.IntersectClusters(nil, s)
		var want []int32
		for ci := range a.Clusters {
			all := true
			for _, term := range s {
				if !occ[term][int32(ci)] {
					all = false
					break
				}
			}
			if all {
				want = append(want, int32(ci))
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("itemset %v: intersect %v, want %v", s, got, want)
		}
	}
	for trial := 0; trial < 200; trial++ {
		terms := make([]dataset.Term, 1+rng.IntN(3))
		for j := range terms {
			terms[j] = dataset.Term(rng.IntN(28)) // a few outside the domain
		}
		s := dataset.NewRecord(terms...)
		hasAbsent := false
		for _, term := range s {
			if _, ok := ix.Rank(term); !ok {
				hasAbsent = true
			}
		}
		if hasAbsent {
			if out := ix.IntersectClusters(nil, s); out != nil {
				t.Errorf("itemset %v with absent term: got %v, want empty", s, out)
			}
			continue
		}
		check(s)
	}
}

func TestIndexEmptyForest(t *testing.T) {
	ix := Build(&core.Anonymized{K: 3, M: 2})
	if ix.NumTerms() != 0 {
		t.Fatalf("empty publication has %d terms", ix.NumTerms())
	}
	if out := ix.IntersectClusters(nil, dataset.NewRecord(1)); out != nil {
		t.Fatalf("intersect on empty index = %v", out)
	}
}
