package core

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"disasso/internal/dataset"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(1, 1)) }

// domainSet returns the set of chunk domains as keys for comparison.
func domainSet(cl *Cluster) map[string]bool {
	out := make(map[string]bool)
	for _, c := range cl.RecordChunks {
		out[c.Domain.Key()] = true
	}
	return out
}

func TestVerPartFigure2P1(t *testing.T) {
	// VERPART on the paper's cluster P1 with k=3, m=2 must reproduce
	// Figure 2b exactly: T1 = {itunes, flu, madonna}, T2 = {audi a4,
	// sony tv}, term chunk {ikea, viagra, ruby}.
	cl := VerPart(figure2P1(), 3, 2, nil, testRNG())
	if cl.Size != 5 {
		t.Fatalf("Size = %d", cl.Size)
	}
	if len(cl.RecordChunks) != 2 {
		t.Fatalf("got %d record chunks, want 2", len(cl.RecordChunks))
	}
	doms := domainSet(cl)
	if !doms[dataset.NewRecord(itunes, flu, madonna).Key()] {
		t.Errorf("missing chunk domain {itunes, flu, madonna}; got %v", doms)
	}
	if !doms[dataset.NewRecord(audiA4, sonyTV).Key()] {
		t.Errorf("missing chunk domain {audi a4, sony tv}; got %v", doms)
	}
	if !cl.TermChunk.Equal(dataset.NewRecord(ikea, viagra, ruby)) {
		t.Errorf("term chunk = %v, want {ikea, viagra, ruby}", cl.TermChunk)
	}
	// Chunk contents: C1 has 5 non-empty subrecords, C2 has 3.
	for _, c := range cl.RecordChunks {
		switch c.Domain.Key() {
		case dataset.NewRecord(itunes, flu, madonna).Key():
			if len(c.Subrecords) != 5 {
				t.Errorf("C1 has %d subrecords, want 5", len(c.Subrecords))
			}
		case dataset.NewRecord(audiA4, sonyTV).Key():
			if len(c.Subrecords) != 3 {
				t.Errorf("C2 has %d subrecords, want 3", len(c.Subrecords))
			}
		}
	}
}

func TestVerPartFigure2P2(t *testing.T) {
	// Figure 2b: P2 gets one record chunk {iphone sdk, madonna, digital
	// camera} and term chunk {panic disorder, playboy, ikea, ruby}.
	cl := VerPart(figure2P2(), 3, 2, nil, testRNG())
	if len(cl.RecordChunks) != 1 {
		t.Fatalf("got %d record chunks, want 1", len(cl.RecordChunks))
	}
	wantDom := dataset.NewRecord(madonna, iphoneSDK, digitalCam)
	if !cl.RecordChunks[0].Domain.Equal(wantDom) {
		t.Errorf("domain = %v, want %v", cl.RecordChunks[0].Domain, wantDom)
	}
	if !cl.TermChunk.Equal(dataset.NewRecord(ikea, ruby, panicDis, playboy)) {
		t.Errorf("term chunk = %v", cl.TermChunk)
	}
	if len(cl.RecordChunks[0].Subrecords) != 5 {
		t.Errorf("chunk has %d subrecords, want 5", len(cl.RecordChunks[0].Subrecords))
	}
}

func TestVerPartChunksAreKMAnonymous(t *testing.T) {
	for _, records := range [][]dataset.Record{figure2P1(), figure2P2(), figure2Records()} {
		cl := VerPart(records, 3, 2, nil, testRNG())
		for i, c := range cl.RecordChunks {
			if !IsChunkKMAnonymous(c.Domain, c.Subrecords, 3, 2) {
				t.Errorf("chunk %d (%v) not 3^2-anonymous", i, c.Domain)
			}
		}
	}
}

func TestVerPartDomainsPartitionClusterTerms(t *testing.T) {
	records := figure2Records()
	cl := VerPart(records, 3, 2, nil, testRNG())
	var all dataset.Record
	for _, c := range cl.RecordChunks {
		if inter := all.Intersect(c.Domain); len(inter) > 0 {
			t.Fatalf("chunk domains overlap on %v", inter)
		}
		all = all.Union(c.Domain)
	}
	if inter := all.Intersect(cl.TermChunk); len(inter) > 0 {
		t.Fatalf("term chunk overlaps record chunks on %v", inter)
	}
	all = all.Union(cl.TermChunk)
	want := dataset.FromRecords(records).Domain()
	if !all.Equal(dataset.NewRecord(want...)) {
		t.Errorf("chunks+term chunk cover %v, cluster domain is %v", all, want)
	}
}

func TestVerPartLowSupportTermsGoToTermChunk(t *testing.T) {
	cl := VerPart(figure2P1(), 3, 2, nil, testRNG())
	// viagra has support 1 < 3 in P1 — must be in the term chunk.
	if !cl.TermChunk.Contains(viagra) {
		t.Error("viagra (support 1) not in term chunk")
	}
	for _, c := range cl.RecordChunks {
		if c.Domain.Contains(viagra) {
			t.Error("viagra placed in a record chunk")
		}
	}
}

func TestVerPartSensitiveTermsForcedToTermChunk(t *testing.T) {
	// madonna has support 4 ≥ k in P1, but marked sensitive it must land in
	// the term chunk (l-diversity mode, Section 5).
	sensitive := map[dataset.Term]bool{madonna: true}
	cl := VerPart(figure2P1(), 3, 2, sensitive, testRNG())
	if !cl.TermChunk.Contains(madonna) {
		t.Error("sensitive term not in term chunk")
	}
	for _, c := range cl.RecordChunks {
		if c.Domain.Contains(madonna) {
			t.Error("sensitive term in a record chunk")
		}
	}
}

func TestVerPartFigure4Lemma2(t *testing.T) {
	// Example 1 (Figure 4): records {a},{a},{b,c},{b,c},{a,b,c} with k=3,
	// m=2. The naive chunks C1={a}, C2={b,c} are 3^2-anonymous but violate
	// Lemma 2 (6 subrecords < 5 + 3·1 = 8). VERPART must demote a term to
	// the term chunk.
	a, b, c := dataset.Term(0), dataset.Term(1), dataset.Term(2)
	records := []dataset.Record{
		dataset.NewRecord(a),
		dataset.NewRecord(a),
		dataset.NewRecord(b, c),
		dataset.NewRecord(b, c),
		dataset.NewRecord(a, b, c),
	}
	cl := VerPart(records, 3, 2, nil, testRNG())
	if len(cl.TermChunk) == 0 && !lemma2Holds(cl, 3, 2) {
		t.Fatalf("Lemma 2 violated: chunks %v, term chunk %v", cl.RecordChunks, cl.TermChunk)
	}
	if len(cl.TermChunk) == 0 {
		t.Fatalf("expected a demoted term in the term chunk, got chunks %+v", cl.RecordChunks)
	}
	for _, ch := range cl.RecordChunks {
		if !IsChunkKMAnonymous(ch.Domain, ch.Subrecords, 3, 2) {
			t.Errorf("chunk %v lost k^m-anonymity after the Lemma 2 fix", ch.Domain)
		}
	}
}

func TestVerPartTinyCluster(t *testing.T) {
	// Fewer records than k: everything must go to the term chunk.
	records := []dataset.Record{
		dataset.NewRecord(1, 2),
		dataset.NewRecord(3),
	}
	cl := VerPart(records, 5, 2, nil, testRNG())
	if len(cl.RecordChunks) != 0 {
		t.Errorf("got %d record chunks, want 0", len(cl.RecordChunks))
	}
	if !cl.TermChunk.Equal(dataset.NewRecord(1, 2, 3)) {
		t.Errorf("term chunk = %v", cl.TermChunk)
	}
	if cl.Size != 2 {
		t.Errorf("Size = %d", cl.Size)
	}
}

func TestVerPartSubrecordsAreProjections(t *testing.T) {
	records := figure2P1()
	cl := VerPart(records, 3, 2, nil, testRNG())
	for _, c := range cl.RecordChunks {
		// Each subrecord must be the projection of some record, with the
		// right multiplicity (bag equality).
		want := make(map[string]int)
		for _, r := range records {
			if p := r.Intersect(c.Domain); len(p) > 0 {
				want[p.Key()]++
			}
		}
		got := make(map[string]int)
		for _, sr := range c.Subrecords {
			got[sr.Key()]++
		}
		for key, n := range want {
			if got[key] != n {
				t.Errorf("chunk %v: projection %s count %d, want %d", c.Domain, key, got[key], n)
			}
		}
		if len(got) != len(want) {
			t.Errorf("chunk %v: spurious subrecords", c.Domain)
		}
	}
}

func TestVerPartShuffleDeterministicBySeed(t *testing.T) {
	r1 := VerPart(figure2P1(), 3, 2, nil, rand.New(rand.NewPCG(7, 7)))
	r2 := VerPart(figure2P1(), 3, 2, nil, rand.New(rand.NewPCG(7, 7)))
	for i := range r1.RecordChunks {
		for j := range r1.RecordChunks[i].Subrecords {
			if !r1.RecordChunks[i].Subrecords[j].Equal(r2.RecordChunks[i].Subrecords[j]) {
				t.Fatal("same seed produced different subrecord order")
			}
		}
	}
}

// Property: on random clusters, VERPART output always passes the exhaustive
// k^m check and covers exactly the cluster's terms.
func TestVerPartRandomClusters(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 42))
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.IntN(30)
		var records []dataset.Record
		for i := 0; i < n; i++ {
			terms := make([]dataset.Term, 1+rng.IntN(6))
			for j := range terms {
				terms[j] = dataset.Term(rng.IntN(15))
			}
			records = append(records, dataset.NewRecord(terms...))
		}
		k := 2 + rng.IntN(4)
		m := 1 + rng.IntN(3)
		cl := VerPart(records, k, m, nil, testRNG())
		if cl.Size != n {
			t.Fatalf("trial %d: size %d, want %d", trial, cl.Size, n)
		}
		var all dataset.Record
		for _, c := range cl.RecordChunks {
			if !IsChunkKMAnonymous(c.Domain, c.Subrecords, k, m) {
				t.Fatalf("trial %d: chunk %v fails %d^%d check", trial, c.Domain, k, m)
			}
			if len(all.Intersect(c.Domain)) > 0 {
				t.Fatalf("trial %d: overlapping domains", trial)
			}
			all = all.Union(c.Domain)
		}
		all = all.Union(cl.TermChunk)
		want := dataset.NewRecord(dataset.FromRecords(records).Domain()...)
		if !all.Equal(want) {
			t.Fatalf("trial %d: domain coverage %v vs %v", trial, all, want)
		}
		if len(cl.TermChunk) == 0 && len(cl.RecordChunks) > 0 && !lemma2Holds(cl, k, m) {
			t.Fatalf("trial %d: Lemma 2 violated", trial)
		}
	}
}

// refBuildChunks is the reference chunk build: one projection of every
// record per domain, shuffled as soon as the domain's chunk is built.
func refBuildChunks(records []dataset.Record, domains []dataset.Record, rng *rand.Rand) []Chunk {
	chunks := make([]Chunk, 0, len(domains))
	for _, dom := range domains {
		c := Chunk{Domain: dom}
		total, count := 0, 0
		for _, r := range records {
			if n := intersectCount(r, dom); n > 0 {
				total += n
				count++
			}
		}
		flat := make(dataset.Record, 0, total)
		c.Subrecords = make([]dataset.Record, 0, count)
		for _, r := range records {
			start := len(flat)
			flat = intersectAppend(flat, r, dom)
			if len(flat) > start {
				c.Subrecords = append(c.Subrecords, dataset.Record(flat[start:len(flat):len(flat)]))
			}
		}
		rng.Shuffle(len(c.Subrecords), func(i, j int) {
			c.Subrecords[i], c.Subrecords[j] = c.Subrecords[j], c.Subrecords[i]
		})
		chunks = append(chunks, c)
	}
	return chunks
}

// TestBuildChunksMatchesPerDomainProjection: the one-pass chunk build must
// equal the per-domain projection on random sorted records and pairwise
// disjoint domains — including domains no record touches and terms in no
// domain — and draw exactly the same PRNG values, and it must leave its
// term→chunk table all -1 for the next call on the same scratch.
func TestBuildChunksMatchesPerDomainProjection(t *testing.T) {
	const nTerms = 64
	rng := rand.New(rand.NewPCG(11, 17))
	cs := newChunkScratch(nTerms + 8) // room for terms no record holds
	touched, untouched := 0, 0
	for trial := 0; trial < 300; trial++ {
		records := make([]dataset.Record, rng.IntN(40))
		for i := range records {
			terms := make([]dataset.Term, rng.IntN(10))
			for j := range terms {
				terms[j] = dataset.Term(rng.IntN(nTerms))
			}
			records[i] = dataset.NewRecord(terms...)
		}
		// Deal a random subset of the terms into up to 5 domains; the rest
		// join no domain. On every third trial the odd domains get only
		// terms no record holds, so no record touches them. Domains left
		// empty are dropped, as no caller passes one.
		var domains []dataset.Record
		if nd := rng.IntN(6); nd > 0 {
			domains = make([]dataset.Record, nd)
			isolateOdd := trial%3 == 0
			for _, term := range rng.Perm(nTerms + 8) {
				d := rng.IntN(nd + 2) // d ≥ nd: the term joins no domain
				if d >= nd || isolateOdd && d%2 == 1 && term < nTerms {
					continue
				}
				domains[d] = append(domains[d], dataset.Term(term))
			}
			domains = slices.DeleteFunc(domains, func(d dataset.Record) bool { return len(d) == 0 })
			for _, d := range domains {
				slices.Sort(d)
			}
		}
		seed := rng.Uint64()
		wantRNG := rand.New(rand.NewPCG(seed, 1))
		gotRNG := rand.New(rand.NewPCG(seed, 1))
		want := refBuildChunks(records, domains, wantRNG)
		got := buildChunks(records, domains, &cs, gotRNG)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: chunks differ\n got %v\nwant %v", trial, got, want)
		}
		if g, w := gotRNG.Uint64(), wantRNG.Uint64(); g != w {
			t.Fatalf("trial %d: next draw %d, want %d: the build consumed a different PRNG stream", trial, g, w)
		}
		for term, c := range cs.chunkOf {
			if c != -1 {
				t.Fatalf("trial %d: chunk table holds %d for term %d after the build", trial, c, term)
			}
		}
		for _, c := range got {
			if len(c.Subrecords) == 0 {
				untouched++
			} else {
				touched++
			}
		}
	}
	if untouched == 0 || touched == 0 {
		t.Fatalf("trials built %d chunks with subrecords and %d without; the test needs both", touched, untouched)
	}
}
