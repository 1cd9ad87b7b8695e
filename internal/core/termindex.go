package core

import (
	"slices"

	"disasso/internal/dataset"
)

// clusterIndex remaps one cluster's records from the huge global term domain
// onto dense local ids (0..n−1, assigned in ascending global-term order so
// projections stay sorted in local-id space) and keeps per-term posting
// lists. The anonymity checkers work entirely in local-id space: m-term
// combinations pack into a single uint64 key and the posting lists let
// TryAdd visit only the records that actually contain the candidate term.
//
// The index also owns the scratch buffers the checkers borrow. Checkers
// built on one index must be used from one goroutine at a time (VERPART and
// REFINE build one index per cluster/join, so cross-cluster parallelism
// never shares an index).
type clusterIndex struct {
	records  []dataset.Record // the original record bag, for slow-path checkers
	terms    []dataset.Term   // local id -> global term, ascending
	recs     [][]uint32       // per record, its terms as sorted local ids
	postings [][]int32        // local id -> indices of records containing it

	// Scratch borrowed by checkers (single-goroutine use).
	domBits []bool       // current checker's domain as a local-id bitmap
	proj    []uint32     // record ∩ domain projection buffer
	counter comboCounter // combination counts, reused across TryAdd calls
	enum    subsetEnum   // reusable subset enumeration state
}

// buildClusterIndex scans the record bag once and builds the dense remapping.
// Dense local ids are positions in the sorted distinct terms, so they ascend
// with global terms — the invariant the packed combination keys, VERPART's
// candidate ordering and HORPART's tie-breaking all rely on.
func buildClusterIndex(records []dataset.Record) *clusterIndex {
	total := 0
	for _, r := range records {
		total += len(r)
	}
	terms := dataset.DistinctTerms(records)

	ix := &clusterIndex{records: records, terms: terms}

	// Remap by binary search: records are short and the term list small, so
	// this beats building a lookup map.
	flat := make([]uint32, total)
	ix.recs = make([][]uint32, len(records))
	supports := make([]int32, len(terms))
	used := 0
	for i, r := range records {
		lr := flat[used : used : used+len(r)]
		for _, t := range r {
			j, _ := slices.BinarySearch(terms, t)
			lt := uint32(j)
			lr = append(lr, lt)
			supports[lt]++
		}
		ix.recs[i] = lr
		used += len(r)
	}

	post := make([]int32, total)
	ix.postings = make([][]int32, len(terms))
	used = 0
	for lt, s := range supports {
		ix.postings[lt] = post[used : used : used+int(s)]
		used += int(s)
	}
	for ri, lr := range ix.recs {
		for _, lt := range lr {
			ix.postings[lt] = append(ix.postings[lt], int32(ri))
		}
	}

	ix.domBits = make([]bool, len(terms))
	return ix
}

// indexScratch rebuilds clusterIndexes over record bags drawn from one dense
// term domain (terms must be ids below nTerms) without allocating in the
// steady state: distinct-term collection and the local-id remap go through
// epoch-stamped flat arrays instead of per-term binary searches, and the
// index's backing storage is reused between builds. Each worker owns one
// scratch; an index (and every checker built on it) is valid only until the
// owning scratch's next build call.
type indexScratch struct {
	localOf []int32  // dense term id -> local id, valid when stamp matches
	stamp   []uint32 // epoch marks for localOf
	epoch   uint32

	ix      clusterIndex
	termBuf []dataset.Term
	flat    []uint32
	recsBuf [][]uint32
	postBuf []int32
	posts   [][]int32
	supBuf  []int32
	domBuf  []bool

	// chunks builds the chunks of the domains drawn from the same term
	// domain (buildChunks); it is independent of the index.
	chunks chunkScratch
}

func newIndexScratch(nTerms int) *indexScratch {
	return &indexScratch{
		localOf: make([]int32, nTerms),
		stamp:   make([]uint32, nTerms),
		chunks:  newChunkScratch(nTerms),
	}
}

// build rebuilds the scratch-owned index over the records. It is the dense
// counterpart of buildClusterIndex with identical observable behavior.
func (s *indexScratch) build(records []dataset.Record) *clusterIndex {
	s.epoch++
	total := 0
	terms := s.termBuf[:0]
	for _, r := range records {
		total += len(r)
		for _, t := range r {
			if s.stamp[t] != s.epoch {
				s.stamp[t] = s.epoch
				terms = append(terms, t)
			}
		}
	}
	slices.Sort(terms)
	s.termBuf = terms
	for i, t := range terms {
		s.localOf[t] = int32(i)
	}

	if cap(s.flat) < total {
		s.flat = make([]uint32, 0, total+total/2)
	}
	flat := s.flat[:0]
	if cap(s.recsBuf) < len(records) {
		s.recsBuf = make([][]uint32, len(records)+len(records)/2)
	}
	recs := s.recsBuf[:len(records)]
	if cap(s.supBuf) < len(terms) {
		s.supBuf = make([]int32, len(terms)+len(terms)/2)
	}
	supports := s.supBuf[:len(terms)]
	clear(supports)
	for i, r := range records {
		start := len(flat)
		for _, t := range r {
			lt := uint32(s.localOf[t])
			flat = append(flat, lt)
			supports[lt]++
		}
		recs[i] = flat[start:len(flat):len(flat)]
	}

	if cap(s.postBuf) < total {
		s.postBuf = make([]int32, total+total/2)
	}
	post := s.postBuf[:total]
	if cap(s.posts) < len(terms) {
		s.posts = make([][]int32, len(terms)+len(terms)/2)
	}
	postings := s.posts[:len(terms)]
	used := 0
	for lt, sup := range supports {
		postings[lt] = post[used : used : used+int(sup)]
		used += int(sup)
	}
	for ri, lr := range recs {
		for _, lt := range lr {
			postings[lt] = append(postings[lt], int32(ri))
		}
	}

	if cap(s.domBuf) < len(terms) {
		s.domBuf = make([]bool, len(terms)+len(terms)/2)
	}
	domBits := s.domBuf[:len(terms)]
	clear(domBits)

	ix := &s.ix
	ix.records = records
	ix.terms = terms
	ix.recs = recs
	ix.postings = postings
	ix.domBits = domBits
	return ix
}

// localID returns the dense id of a global term, if the term occurs in the
// indexed records.
func (ix *clusterIndex) localID(t dataset.Term) (uint32, bool) {
	i, ok := slices.BinarySearch(ix.terms, t)
	return uint32(i), ok
}

// resetDomain clears the shared domain bitmap for a fresh checker.
func (ix *clusterIndex) resetDomain() {
	clear(ix.domBits)
}

// packSpace returns base^elems, the size of the positional key space for
// combinations of up to elems local ids in base base, and whether it fits in
// a uint64 (with headroom so key arithmetic cannot overflow).
func packSpace(base uint64, elems int) (uint64, bool) {
	space := uint64(1)
	for i := 0; i < elems; i++ {
		if space > (1<<62)/base {
			return 0, false
		}
		space *= base
	}
	return space, true
}

// maxFlatCounterSpace bounds the dense counting slab: key spaces up to 2^20
// entries (4 MiB of int32) count in a flat array, larger ones fall back to a
// uint64-keyed map.
const maxFlatCounterSpace = 1 << 20

// comboCounter counts packed combination keys. Small key spaces use a flat
// slab reset via a touched list; large ones use a reusable map. Both reuse
// their storage across begin calls, so steady-state counting is
// allocation-free.
type comboCounter struct {
	useFlat bool
	flat    []int32
	touched []uint64
	m       map[uint64]int32
}

// begin prepares the counter for one counting round over the given key space.
func (c *comboCounter) begin(space uint64) {
	for _, k := range c.touched {
		c.flat[k] = 0
	}
	c.touched = c.touched[:0]
	if len(c.m) > 0 {
		clear(c.m)
	}
	c.useFlat = space <= maxFlatCounterSpace
	if c.useFlat {
		if uint64(len(c.flat)) < space {
			c.flat = make([]int32, space)
		}
	} else if c.m == nil {
		c.m = make(map[uint64]int32)
	}
}

func (c *comboCounter) inc(key uint64) {
	if c.useFlat {
		if c.flat[key] == 0 {
			c.touched = append(c.touched, key)
		}
		c.flat[key]++
	} else {
		c.m[key]++
	}
}

// allAtLeast reports whether every counted key reached k.
func (c *comboCounter) allAtLeast(k int32) bool {
	if c.useFlat {
		for _, key := range c.touched {
			if c.flat[key] < k {
				return false
			}
		}
		return true
	}
	//lint:deterministic order-independent forall-threshold reduction over counts
	for _, n := range c.m {
		if n < k {
			return false
		}
	}
	return true
}

// subsetEnum enumerates all subsets of up to maxSize elements of a sorted
// local-id projection, incrementally building the positional packed key
// (digits are id+1 in base base, most significant first, so keys are
// canonical per subset and distinct across sizes). It lives on the index so
// enumeration allocates nothing.
type subsetEnum struct {
	counter  *comboCounter
	proj     []uint32
	base     uint64
	maxSize  int
	countAll bool // count the empty subset too (TryAdd counts combos {t}∪s, s possibly empty)
}

func (e *subsetEnum) run() {
	if e.countAll {
		e.counter.inc(0)
	}
	if e.maxSize > 0 {
		e.rec(0, 0, 0)
	}
}

func (e *subsetEnum) rec(start int, key uint64, depth int) {
	for i := start; i < len(e.proj); i++ {
		k := key*e.base + uint64(e.proj[i]) + 1
		e.counter.inc(k)
		if depth+1 < e.maxSize {
			e.rec(i+1, k, depth+1)
		}
	}
}

// countSubsets counts every subset of proj with at most maxSize elements
// (including, when countAll is set, the empty subset) into the index's
// counter.
func (ix *clusterIndex) countSubsets(proj []uint32, base uint64, maxSize int, countAll bool) {
	ix.enum = subsetEnum{counter: &ix.counter, proj: proj, base: base, maxSize: maxSize, countAll: countAll}
	ix.enum.run()
}
