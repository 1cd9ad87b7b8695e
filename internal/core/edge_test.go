package core

import (
	"testing"

	"disasso/internal/dataset"
)

// TestAnonymizeSingleRecord: one record cannot meet K=2, but the pipeline
// must still publish it (everything lands in the term chunk) instead of
// panicking.
func TestAnonymizeSingleRecord(t *testing.T) {
	d := dataset.FromRecords([]dataset.Record{dataset.NewRecord(1, 2, 3)})
	a, err := Anonymize(d, Options{K: 2, M: 2, Seed: 1})
	if err != nil {
		t.Fatalf("Anonymize(single) error: %v", err)
	}
	if got := a.NumRecords(); got != 1 {
		t.Fatalf("NumRecords = %d, want 1", got)
	}
	leaves := a.AllLeaves()
	if len(leaves) != 1 {
		t.Fatalf("got %d leaves, want 1", len(leaves))
	}
	// Support 1 < K for every term: all must be disassociated into the term
	// chunk, no record chunks.
	if len(leaves[0].RecordChunks) != 0 {
		t.Errorf("single record produced %d record chunks", len(leaves[0].RecordChunks))
	}
	if !leaves[0].TermChunk.Equal(dataset.NewRecord(1, 2, 3)) {
		t.Errorf("term chunk = %v, want {1, 2, 3}", leaves[0].TermChunk)
	}
}

// TestAnonymizeAllSensitive: when every term is sensitive, HORPART has no
// split candidates and VERPART must put the whole domain in term chunks.
func TestAnonymizeAllSensitive(t *testing.T) {
	var records []dataset.Record
	for i := 0; i < 12; i++ {
		records = append(records, dataset.NewRecord(1, 2, dataset.Term(3+i%3)))
	}
	d := dataset.FromRecords(records)
	sensitive := map[dataset.Term]bool{1: true, 2: true, 3: true, 4: true, 5: true}
	a, err := Anonymize(d, Options{K: 3, M: 2, MaxClusterSize: 5, Sensitive: sensitive, Seed: 1})
	if err != nil {
		t.Fatalf("Anonymize(all sensitive) error: %v", err)
	}
	if got := a.NumRecords(); got != 12 {
		t.Fatalf("NumRecords = %d, want 12", got)
	}
	for li, leaf := range a.AllLeaves() {
		if len(leaf.RecordChunks) != 0 {
			t.Errorf("leaf %d: sensitive terms leaked into %d record chunks", li, len(leaf.RecordChunks))
		}
	}
	// Sensitive terms must never appear in shared chunks either.
	for _, c := range a.AllChunks() {
		for _, term := range c.Domain {
			if sensitive[term] {
				t.Errorf("sensitive term %d published in a chunk domain", term)
			}
		}
	}
}

// TestHorPartAllRecordsOneTerm: a dataset whose every record is the same
// singleton exhausts split terms immediately; mostFrequentTerm must cope
// with the resulting no-candidate calls.
func TestHorPartAllRecordsOneTerm(t *testing.T) {
	var records []dataset.Record
	for i := 0; i < 10; i++ {
		records = append(records, dataset.NewRecord(7))
	}
	d := dataset.FromRecords(records)
	clusters := HorPart(d, 4, nil)
	assertPartition(t, d, clusters)
	if len(clusters) != 1 {
		t.Errorf("got %d clusters, want 1 oversized cluster", len(clusters))
	}
}

// TestHorPartPathologicalChain: pairwise-disjoint singleton records make
// every split peel exactly one record, driving the split tree to depth n.
// The explicit-stack fallback must keep this from exhausting the call stack.
func TestHorPartPathologicalChain(t *testing.T) {
	const n = 10_000
	records := make([]dataset.Record, n)
	for i := range records {
		records[i] = dataset.NewRecord(dataset.Term(i))
	}
	d := dataset.FromRecords(records)
	clusters := HorPart(d, 2, nil)
	total := 0
	for _, c := range clusters {
		total += len(c)
		if len(c) != 1 {
			t.Fatalf("expected singleton clusters, got one of %d", len(c))
		}
	}
	if total != n {
		t.Fatalf("clusters cover %d records, want %d", total, n)
	}
}

// TestHorPartNMatchesSequential: the parallel split must emit the exact
// cluster list of the sequential one for any worker count.
func TestHorPartNMatchesSequential(t *testing.T) {
	d := genDataset(21, 43, 180)
	want := HorPartN(d, 8, nil, 1)
	for _, workers := range []int{2, 4, 8} {
		got := HorPartN(d, 8, nil, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d clusters, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d: cluster %d has %d records, want %d", workers, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if !got[i][j].Equal(want[i][j]) {
					t.Fatalf("workers=%d: cluster %d record %d differs", workers, i, j)
				}
			}
		}
	}
}

// TestKMCheckerSlowPathAgrees: force the string-keyed fallback and check it
// accepts/rejects exactly like the packed fast path.
func TestKMCheckerSlowPathAgrees(t *testing.T) {
	records := []dataset.Record{
		dataset.NewRecord(1, 2, 3),
		dataset.NewRecord(1, 2, 3),
		dataset.NewRecord(1, 2),
		dataset.NewRecord(1, 3),
		dataset.NewRecord(2, 3),
		dataset.NewRecord(4), dataset.NewRecord(4),
	}
	for _, k := range []int{2, 3} {
		for _, m := range []int{1, 2, 3} {
			fast := newKMCheckerOnIndex(k, m, buildClusterIndex(records))
			slow := newKMCheckerOnIndex(k, m, buildClusterIndex(records))
			if !slow.packed {
				t.Fatal("fixture should default to the packed path")
			}
			slow.packed = false
			slow.keyBuf = make([]byte, 0, 4*(m+1))
			slow.counts = make(map[string]int)
			for term := dataset.Term(1); term <= 4; term++ {
				gotFast := fast.TryAdd(term)
				gotSlow := slow.TryAdd(term)
				if gotFast != gotSlow {
					t.Errorf("k=%d m=%d TryAdd(%d): fast=%v slow=%v", k, m, term, gotFast, gotSlow)
				}
			}
			if !fast.Domain().Equal(slow.Domain()) {
				t.Errorf("k=%d m=%d: domains diverge: %v vs %v", k, m, fast.Domain(), slow.Domain())
			}
		}
	}
}

// TestIsChunkKMAnonymousSlowAgrees: the packed full check and the
// string-keyed fallback must agree.
func TestIsChunkKMAnonymousSlowAgrees(t *testing.T) {
	dom := dataset.NewRecord(1, 2, 3)
	cases := [][]dataset.Record{
		{dataset.NewRecord(1, 2), dataset.NewRecord(1, 2), dataset.NewRecord(3), dataset.NewRecord(3)},
		{dataset.NewRecord(1, 2), dataset.NewRecord(1), dataset.NewRecord(2)},
		nil,
	}
	for i, subrecords := range cases {
		for _, k := range []int{2, 3} {
			for _, m := range []int{1, 2, 3} {
				fast := IsChunkKMAnonymous(dom, subrecords, k, m)
				slow := isChunkKMAnonymousSlow(dom, subrecords, k, m)
				if fast != slow {
					t.Errorf("case %d k=%d m=%d: fast=%v slow=%v", i, k, m, fast, slow)
				}
			}
		}
	}
}
