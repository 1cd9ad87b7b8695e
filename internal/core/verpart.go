package core

import (
	"math/rand/v2"
	"slices"

	"disasso/internal/dataset"
)

// VerPart implements Algorithm VERPART (Section 4) plus the Lemma 2 validity
// check of Section 5. Given the records of one cluster it returns the
// published Cluster: k^m-anonymous record chunks C_1..C_v and the term chunk
// C_T.
//
// Terms whose in-cluster support is below k go to the term chunk, as do all
// sensitive terms (the l-diversity mode of Section 5). The remaining terms
// are scanned in descending support order and greedily accumulated into
// chunk domains while the projected chunk stays k^m-anonymous.
//
// After partitioning, the Lemma 2 condition is enforced: if the term chunk is
// empty, the total number of (non-empty) subrecords must reach
// |P| + k·(min(m, v) − 1); otherwise the least frequent record-chunk term is
// demoted to the term chunk, which restores Guarantee 1 (and closes the
// Figure 4 / Example 1 attack).
//
// rng drives the subrecord shuffling that hides cross-chunk associations; it
// must be non-nil.
//
// It runs over the records' own dense term domain, like the pipeline, and
// maps the cluster back to the records' terms.
func VerPart(records []dataset.Record, k, m int, sensitive map[dataset.Term]bool, rng *rand.Rand) *Cluster {
	dom := dataset.NewDenseDomain(records)
	isSensitive := func(t dataset.Term) bool { return sensitive[dom.TermOf(t)] }
	cl, _ := verPartIndexed(dom.RemapAll(records), k, m, isSensitive, rng, newIndexScratch(dom.Len()))
	restoreNode(&ClusterNode{Simple: cl}, dom)
	return cl
}

// verPartIndexed is VerPart's core over dense term ids. scr provides the
// reusable index build and chunk table (the pipeline hands each worker its
// own scratch). The cluster index is returned so the caller can lift the
// in-cluster supports out of it — it is only valid until the scratch's next
// build.
func verPartIndexed(records []dataset.Record, k, m int, isSensitive func(dataset.Term) bool, rng *rand.Rand, scr *indexScratch) (*Cluster, *clusterIndex) {
	cl := &Cluster{Size: len(records)}

	// One dense index over the cluster's records backs the support counts
	// and every greedy checker pass: in-cluster support is simply the
	// posting-list length.
	ix := scr.build(records)
	support := func(t dataset.Term) int {
		if lt, ok := ix.localID(t); ok {
			return len(ix.postings[lt])
		}
		return 0
	}

	// Split the cluster domain into the candidate list (support ≥ k, not
	// sensitive) ordered by descending support, and the term chunk seed.
	// Candidates sort as local ids: ids ascend with global terms, so the
	// (support desc, term asc) order carries over.
	var remainL []uint32
	var termChunk []dataset.Term
	for lt, t := range ix.terms {
		if len(ix.postings[lt]) < k || isSensitive(t) {
			termChunk = append(termChunk, t)
		} else {
			remainL = append(remainL, uint32(lt))
		}
	}
	slices.SortFunc(remainL, func(a, b uint32) int {
		if d := len(ix.postings[b]) - len(ix.postings[a]); d != 0 {
			return d
		}
		return int(a) - int(b)
	})
	remain := make([]dataset.Term, len(remainL))
	for i, lt := range remainL {
		remain[i] = ix.terms[lt]
	}

	// Greedy domain construction: one pass per chunk over the remaining
	// terms, keeping every term whose addition preserves k^m-anonymity.
	var domains []dataset.Record
	for len(remain) > 0 {
		checker := newKMCheckerOnIndex(k, m, ix)
		var leftover []dataset.Term
		for _, t := range remain {
			if !checker.TryAdd(t) {
				leftover = append(leftover, t)
			}
		}
		domain := checker.Domain()
		if len(domain) == 0 {
			// Cannot happen: a singleton chunk of a support-≥k term is always
			// k^m-anonymous; guard against infinite loops regardless.
			termChunk = append(termChunk, leftover...)
			break
		}
		domains = append(domains, domain)
		remain = leftover
	}

	// Materialize chunks by projection and enforce Lemma 2.
	cl.RecordChunks = buildChunks(records, domains, &scr.chunks, rng)
	cl.TermChunk = dataset.NewRecord(termChunk...)
	enforceLemma2(cl, records, support, k, m, &scr.chunks, rng)
	return cl, ix
}

// buildChunks projects the records onto each of the pairwise disjoint
// domains, keeping the non-empty projections, and shuffles each chunk's
// subrecords. It walks the records once: cs's term→chunk table sends each
// record's terms to their chunks' staging buffers in record order, so every
// chunk holds its projections in record order before its shuffle, and the
// chunks are shuffled in domain order — exactly the draws of projecting and
// shuffling one domain after another. Each chunk's subrecords share one
// exactly sized backing allocation.
func buildChunks(records []dataset.Record, domains []dataset.Record, cs *chunkScratch, rng *rand.Rand) []Chunk {
	cs.reset(len(domains))
	for ci, dom := range domains {
		for _, t := range dom {
			cs.chunkOf[t] = int32(ci)
		}
	}
	for ri, r := range records {
		for _, t := range r {
			c := cs.chunkOf[t]
			if c < 0 {
				continue
			}
			if cs.open[c] != int32(ri) {
				if cs.open[c] >= 0 {
					cs.ends[c] = append(cs.ends[c], int32(len(cs.terms[c])))
				}
				cs.open[c] = int32(ri)
			}
			cs.terms[c] = append(cs.terms[c], t)
		}
	}

	chunks := make([]Chunk, len(domains))
	for ci, dom := range domains {
		for _, t := range dom {
			cs.chunkOf[t] = -1
		}
		if cs.open[ci] >= 0 {
			cs.ends[ci] = append(cs.ends[ci], int32(len(cs.terms[ci])))
		}
		flat := slices.Clone(cs.terms[ci])
		subs := make([]dataset.Record, len(cs.ends[ci]))
		start := int32(0)
		for i, end := range cs.ends[ci] {
			subs[i] = dataset.Record(flat[start:end:end])
			start = end
		}
		rng.Shuffle(len(subs), func(i, j int) {
			subs[i], subs[j] = subs[j], subs[i]
		})
		chunks[ci] = Chunk{Domain: dom, Subrecords: subs}
	}
	return chunks
}

// chunkScratch is the reusable state behind buildChunks, owned by one
// goroutine at a time. chunkOf maps a dense term id to the chunk whose
// domain holds it and is -1 for every term between calls; the per-chunk
// buffers stage the subrecords of one call.
type chunkScratch struct {
	chunkOf []int32
	terms   [][]dataset.Term // per chunk: its subrecords' terms, back to back
	ends    [][]int32        // per chunk: the end offset of each closed subrecord
	open    []int32          // per chunk: the record its last subrecord came from, or -1
}

func newChunkScratch(nTerms int) chunkScratch {
	chunkOf := make([]int32, nTerms)
	for i := range chunkOf {
		chunkOf[i] = -1
	}
	return chunkScratch{chunkOf: chunkOf}
}

// reset empties the staging buffers of the first n chunks.
func (cs *chunkScratch) reset(n int) {
	for len(cs.open) < n {
		cs.terms = append(cs.terms, nil)
		cs.ends = append(cs.ends, nil)
		cs.open = append(cs.open, 0)
	}
	for c := range n {
		cs.terms[c] = cs.terms[c][:0]
		cs.ends[c] = cs.ends[c][:0]
		cs.open[c] = -1
	}
}

// intersectCount returns |a ∩ b| for sorted records without allocating.
func intersectCount(a, b dataset.Record) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i, j = i+1, j+1
		}
	}
	return n
}

// enforceLemma2 checks the subrecord-count condition of Lemma 2 and, when it
// fails, demotes the least frequent record-chunk term into the term chunk
// (re-projecting the affected chunk). A non-empty term chunk always
// satisfies the lemma, so at most one demotion is needed.
func enforceLemma2(cl *Cluster, records []dataset.Record, support func(dataset.Term) int, k, m int, cs *chunkScratch, rng *rand.Rand) {
	if len(cl.TermChunk) > 0 || len(cl.RecordChunks) == 0 {
		return
	}
	if lemma2Holds(cl, k, m) {
		return
	}
	// Find the least frequent term across record chunks (ties: larger ID).
	var victim dataset.Term
	victimSup := -1
	victimChunk := -1
	for ci, c := range cl.RecordChunks {
		for _, t := range c.Domain {
			if s := support(t); victimSup == -1 || s < victimSup || (s == victimSup && t > victim) {
				victim, victimSup, victimChunk = t, s, ci
			}
		}
	}
	c := &cl.RecordChunks[victimChunk]
	newDomain := c.Domain.Subtract(dataset.Record{victim})
	if len(newDomain) == 0 {
		// Chunk degenerates to nothing: drop it entirely.
		cl.RecordChunks = append(cl.RecordChunks[:victimChunk], cl.RecordChunks[victimChunk+1:]...)
	} else {
		rebuilt := buildChunks(records, []dataset.Record{newDomain}, cs, rng)
		cl.RecordChunks[victimChunk] = rebuilt[0]
	}
	cl.TermChunk = dataset.NewRecord(victim)
}

// lemma2Holds evaluates the condition of Lemma 2 on a cluster with an empty
// term chunk: Σ|C_i| ≥ |P| + k·(h−1) with h = min(m, v).
func lemma2Holds(cl *Cluster, k, m int) bool {
	total := 0
	for _, c := range cl.RecordChunks {
		total += len(c.Subrecords)
	}
	h := m
	if v := len(cl.RecordChunks); v < h {
		h = v
	}
	return total >= cl.Size+k*(h-1)
}
