package core

import (
	"encoding/binary"
	"slices"

	"disasso/internal/dataset"
	"disasso/internal/itemset"
)

// comboKey encodes a small sorted term combination (plus one extra term) into
// a compact string usable as a map key. Binary 4-byte big-endian encoding
// keeps keys unique and cheap to hash. It backs the fallback path for m too
// large to pack combinations into a uint64; the hot path packs local ids
// instead (see clusterIndex).
func comboKey(buf []byte, combo dataset.Record, extra dataset.Term) (string, []byte) {
	buf = buf[:0]
	placed := false
	var scratch [4]byte
	for _, t := range combo {
		if !placed && extra < t {
			binary.BigEndian.PutUint32(scratch[:], uint32(extra))
			buf = append(buf, scratch[:]...)
			placed = true
		}
		binary.BigEndian.PutUint32(scratch[:], uint32(t))
		buf = append(buf, scratch[:]...)
	}
	if !placed {
		binary.BigEndian.PutUint32(scratch[:], uint32(extra))
		buf = append(buf, scratch[:]...)
	}
	return string(buf), buf
}

// kmChecker incrementally grows a chunk domain over a fixed bag of records
// while maintaining k^m-anonymity: every combination of at most m domain
// terms that appears in the projected chunk appears at least k times.
//
// TryAdd exploits that extending the domain with a term t cannot change the
// support of combinations not involving t, so only combinations that include
// t need counting — each is a subset of (record ∩ current domain) of size at
// most m−1, unioned with {t}. The posting lists of the cluster index let it
// visit only the records containing t, and combinations pack into uint64
// keys counted in a reusable flat slab or map, so the steady state
// allocates nothing.
type kmChecker struct {
	k, m   int
	ix     *clusterIndex
	domain dataset.Record // current chunk domain (global terms), sorted

	packed      bool   // combinations fit the packed-key fast path
	base, space uint64 // positional packing base (n+1) and key space base^(m−1)

	// Fallback state for m too large to pack (string-keyed counting).
	keyBuf []byte
	counts map[string]int
}

// newKMCheckerOnIndex builds a checker over the record bag of a cluster
// index. VERPART and REFINE run several greedy passes over one bag, so the
// checkers share the index and its scratch buffers — checkers on one index
// must not be used concurrently.
func newKMCheckerOnIndex(k, m int, ix *clusterIndex) *kmChecker {
	c := &kmChecker{k: k, m: m, ix: ix}
	c.base = uint64(len(ix.terms)) + 1
	c.space, c.packed = packSpace(c.base, m-1)
	if !c.packed {
		c.keyBuf = make([]byte, 0, 4*(m+1))
		c.counts = make(map[string]int)
	}
	ix.resetDomain()
	return c
}

// Domain returns the accumulated chunk domain.
func (c *kmChecker) Domain() dataset.Record { return c.domain }

// TryAdd tests whether the domain extended with t keeps the projected chunk
// k^m-anonymous; on success the term is added and TryAdd reports true.
func (c *kmChecker) TryAdd(t dataset.Term) bool {
	lt, found := c.ix.localID(t)
	if !found {
		// No record contains t: the projection is unchanged, trivially safe.
		c.domain = insertTerm(c.domain, t)
		return true
	}
	if !c.packed {
		return c.tryAddSlow(t, lt)
	}
	ix := c.ix
	ix.counter.begin(c.space)
	maxSub := c.m - 1
	for _, ri := range ix.postings[lt] {
		proj := ix.proj[:0]
		for _, id := range ix.recs[ri] {
			if ix.domBits[id] {
				proj = append(proj, id)
			}
		}
		ix.proj = proj
		ix.countSubsets(proj, c.base, maxSub, true)
	}
	if !ix.counter.allAtLeast(int32(c.k)) {
		return false
	}
	ix.domBits[lt] = true
	c.domain = insertTerm(c.domain, t)
	return true
}

// tryAddSlow is the string-keyed fallback for m beyond packing capacity.
func (c *kmChecker) tryAddSlow(t dataset.Term, lt uint32) bool {
	clear(c.counts)
	maxSub := c.m - 1
	for _, ri := range c.ix.postings[lt] {
		r := c.ix.records[ri]
		proj := r.Intersect(c.domain)
		top := maxSub
		if top > len(proj) {
			top = len(proj)
		}
		for size := 0; size <= top; size++ {
			itemset.Subsets(proj, size, func(s dataset.Record) bool {
				var key string
				key, c.keyBuf = comboKey(c.keyBuf, s, t)
				c.counts[key]++
				return true
			})
		}
	}
	//lint:deterministic order-independent forall-threshold reduction over counts
	for _, n := range c.counts {
		if n < c.k {
			return false
		}
	}
	c.ix.domBits[lt] = true
	c.domain = insertTerm(c.domain, t)
	return true
}

// insertTerm inserts t into the sorted record, keeping it normalized.
func insertTerm(r dataset.Record, t dataset.Term) dataset.Record {
	i := 0
	for i < len(r) && r[i] < t {
		i++
	}
	if i < len(r) && r[i] == t {
		return r
	}
	r = append(r, 0)
	copy(r[i+1:], r[i:])
	r[i] = t
	return r
}

// kAnonChecker incrementally grows a chunk domain while maintaining plain
// k-anonymity of the projected chunk: every *distinct non-empty subrecord*
// appears at least k times. Property 1 requires this stronger condition for
// shared chunks whose terms also appear in record chunks of descendants.
//
// It maintains the equivalence classes of equal projections explicitly: two
// records project equally onto domain ∪ {t} iff they project equally onto
// domain and agree on containing t, so adding a term splits each class into
// its with-t and without-t halves. TryAdd therefore only walks t's posting
// list and the touched classes — no recounting, no sorting, no hashing.
type kAnonChecker struct {
	k      int
	ix     *clusterIndex
	domain dataset.Record

	group     []int32 // per record: projection class, 0 = empty projection
	groupSize []int32 // per class: member count (class 0 = empty projection)
	withCnt   []int32 // scratch: members of the class containing t
	newID     []int32 // scratch: class -> freshly split-off class
	touched   []int32 // scratch: classes with at least one t-containing member
}

func newKAnonCheckerOnIndex(k int, ix *clusterIndex) *kAnonChecker {
	c := &kAnonChecker{k: k, ix: ix}
	c.group = make([]int32, len(ix.recs))
	c.groupSize = []int32{int32(len(ix.recs))}
	return c
}

// Domain returns the accumulated chunk domain.
func (c *kAnonChecker) Domain() dataset.Record { return c.domain }

// TryAdd tests whether extending the domain with t keeps every distinct
// non-empty projection occurring at least k times; on success the term is
// added and the projection classes are split accordingly.
func (c *kAnonChecker) TryAdd(t dataset.Term) bool {
	lt, found := c.ix.localID(t)
	if !found {
		c.domain = insertTerm(c.domain, t)
		return true
	}
	post := c.ix.postings[lt]
	if len(c.withCnt) < len(c.groupSize) {
		c.withCnt = make([]int32, len(c.groupSize)*2)
		c.newID = make([]int32, len(c.groupSize)*2)
	}
	c.touched = c.touched[:0]
	for _, ri := range post {
		g := c.group[ri]
		if c.withCnt[g] == 0 {
			c.touched = append(c.touched, g)
		}
		c.withCnt[g]++
	}
	ok := true
	for _, g := range c.touched {
		w := c.withCnt[g]
		// The with-t half forms a new non-empty projection class of w
		// members; the without-t half keeps the old projection, which is
		// only constrained when it is non-empty (g != 0) and inhabited.
		if w < int32(c.k) || (g != 0 && c.groupSize[g]-w > 0 && c.groupSize[g]-w < int32(c.k)) {
			ok = false
			break
		}
	}
	if !ok {
		for _, g := range c.touched {
			c.withCnt[g] = 0
		}
		return false
	}
	// Commit: split every touched class.
	for _, g := range c.touched {
		w := c.withCnt[g]
		c.newID[g] = int32(len(c.groupSize))
		c.groupSize = append(c.groupSize, w)
		c.groupSize[g] -= w
	}
	for _, ri := range post {
		c.group[ri] = c.newID[c.group[ri]]
	}
	for _, g := range c.touched {
		c.withCnt[g] = 0
	}
	c.domain = insertTerm(c.domain, t)
	return true
}

// IsChunkKMAnonymous verifies from scratch that every combination of at most
// m domain terms appearing in the subrecords appears at least k times. The
// anonymizer itself uses the incremental checkers; this full check backs the
// independent verifier and tests.
func IsChunkKMAnonymous(domain dataset.Record, subrecords []dataset.Record, k, m int) bool {
	ix := buildClusterIndex(subrecords)
	base := uint64(len(ix.terms)) + 1
	space, ok := packSpace(base, m)
	if !ok {
		return isChunkKMAnonymousSlow(domain, subrecords, k, m)
	}
	for _, t := range domain {
		if lt, found := ix.localID(t); found {
			ix.domBits[lt] = true
		}
	}
	ix.counter.begin(space)
	for _, lr := range ix.recs {
		proj := ix.proj[:0]
		for _, id := range lr {
			if ix.domBits[id] {
				proj = append(proj, id)
			}
		}
		ix.proj = proj
		ix.countSubsets(proj, base, m, false)
	}
	return ix.counter.allAtLeast(int32(k))
}

// isChunkKMAnonymousSlow is the string-keyed fallback for m beyond packing
// capacity.
func isChunkKMAnonymousSlow(domain dataset.Record, subrecords []dataset.Record, k, m int) bool {
	counts := make(map[string]int)
	var keyBuf []byte
	var scratch [4]byte
	encode := func(s dataset.Record) string {
		keyBuf = keyBuf[:0]
		for _, t := range s {
			binary.BigEndian.PutUint32(scratch[:], uint32(t))
			keyBuf = append(keyBuf, scratch[:]...)
		}
		return string(keyBuf)
	}
	for _, sr := range subrecords {
		proj := sr.Intersect(domain)
		top := m
		if top > len(proj) {
			top = len(proj)
		}
		for size := 1; size <= top; size++ {
			itemset.Subsets(proj, size, func(s dataset.Record) bool {
				counts[encode(s)]++
				return true
			})
		}
	}
	//lint:deterministic order-independent forall-threshold reduction over counts
	for _, n := range counts {
		if n < k {
			return false
		}
	}
	return true
}

// IsChunkKAnonymous verifies that every distinct non-empty subrecord
// (projected onto the domain) appears at least k times. Projections are
// sorted and counted as runs, avoiding per-projection map keys.
func IsChunkKAnonymous(domain dataset.Record, subrecords []dataset.Record, k int) bool {
	projs := make([]dataset.Record, 0, len(subrecords))
	for _, sr := range subrecords {
		if p := sr.Intersect(domain); len(p) > 0 {
			projs = append(projs, p)
		}
	}
	slices.SortFunc(projs, func(a, b dataset.Record) int { return slices.Compare(a, b) })
	for i := 0; i < len(projs); {
		j := i + 1
		for j < len(projs) && slices.Compare(projs[i], projs[j]) == 0 {
			j++
		}
		if j-i < k {
			return false
		}
		i = j
	}
	return true
}
