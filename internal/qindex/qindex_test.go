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

// brute-force occurrence map: term -> cluster id -> bits.
func bruteOccurrences(a *core.Anonymized) map[dataset.Term]map[int32]uint8 {
	occ := make(map[dataset.Term]map[int32]uint8)
	mark := func(t dataset.Term, ci int32, bit uint8) {
		if occ[t] == nil {
			occ[t] = make(map[int32]uint8)
		}
		occ[t][ci] |= bit
	}
	for ci, node := range a.Clusters {
		node.Walk(func(cn *core.ClusterNode) {
			if cn.IsLeaf() {
				for _, c := range cn.Simple.RecordChunks {
					for _, t := range c.Domain {
						mark(t, int32(ci), OccRecordChunk)
					}
				}
				for _, t := range cn.Simple.TermChunk {
					mark(t, int32(ci), OccTermChunk)
				}
			} else {
				for _, c := range cn.SharedChunks {
					for _, t := range c.Domain {
						mark(t, int32(ci), OccSharedChunk)
					}
				}
			}
		})
	}
	return occ
}

func TestIndexDomainAndLowerBounds(t *testing.T) {
	a := randomAnonymized(t, 7, 500, 40, 3, 2)
	ix := Build(a)

	terms, _, _, _ := ix.Slabs()
	if want := a.Domain(); !slices.Equal(terms, want) {
		t.Fatalf("index domain %v != published domain %v", terms, want)
	}
	want := a.LowerBoundSupports()
	for r := int32(0); r < int32(ix.NumTerms()); r++ {
		term := terms[r]
		if got := ix.Stats(r).LowerBoundSupport(); got != want[term] {
			t.Errorf("term %d: indexed lower-bound support %d, scan %d", term, got, want[term])
		}
	}
	if len(want) != ix.NumTerms() {
		t.Errorf("index has %d terms, LowerBoundSupports has %d", ix.NumTerms(), len(want))
	}
}

func TestIndexPostingsMatchBruteForce(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		a := randomAnonymized(t, seed, 400, 30, 3, 2)
		ix := Build(a)
		occ := bruteOccurrences(a)
		for term, clusters := range occ {
			r, ok := ix.Rank(term)
			if !ok {
				t.Fatalf("seed %d: term %d missing from index", seed, term)
			}
			post := ix.Postings(r)
			if len(post) != len(clusters) {
				t.Fatalf("seed %d term %d: posting list has %d clusters, want %d", seed, term, len(post), len(clusters))
			}
			if ix.Stats(r).Clusters != len(post) {
				t.Errorf("seed %d term %d: Stats.Clusters %d != posting length %d", seed, term, ix.Stats(r).Clusters, len(post))
			}
			last := int32(-1)
			for _, p := range post {
				if p.Cluster <= last {
					t.Fatalf("seed %d term %d: posting list not strictly ascending", seed, term)
				}
				last = p.Cluster
				if want := clusters[p.Cluster]; p.Bits != want {
					t.Errorf("seed %d term %d cluster %d: bits %03b, want %03b", seed, term, p.Cluster, p.Bits, want)
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
				if _, ok := occ[term][int32(ci)]; !ok {
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
		if out := ix.IntersectClusters(nil, s); len(out) == 0 {
			// still checked below; absent terms must yield empty
		}
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
