package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"disasso/internal/dataset"
)

// HorPart implements Algorithm HORPART (Section 4): it recursively splits the
// dataset on its most frequent not-yet-used term — records containing the
// term go to one side (and the term joins the ignore set there), the rest to
// the other — until partitions fall below maxClusterSize. The result is a
// partition of the records of d: similar records (sharing frequent terms)
// end up in the same cluster.
//
// Terms in exclude (the sensitive terms of the l-diversity mode, Section 5)
// are never used for splitting. The returned clusters reference the input's
// records without copying. maxClusterSize values below 2 are treated as 2.
func HorPart(d *dataset.Dataset, maxClusterSize int, exclude map[dataset.Term]bool) [][]dataset.Record {
	return HorPartN(d, maxClusterSize, exclude, 1)
}

// HorPartN is HorPart with parallel recursive splits: the two sides of a
// split recurse concurrently on up to parallel workers (0 means GOMAXPROCS,
// 1 is sequential). The cluster list is identical for every worker count —
// it is the preorder of the split tree, records-containing-the-term branch
// first — so parallelism never changes the anonymizer's output.
func HorPartN(d *dataset.Dataset, maxClusterSize int, exclude map[dataset.Term]bool, parallel int) [][]dataset.Record {
	// Remap the dataset onto dense term ids (ascending with global terms) so
	// per-split support counting is a flat array walk instead of map upkeep.
	dom := dataset.NewDenseDomain(d.Records)
	dense := dom.RemapAll(d.Records)
	excludeBits := make([]bool, dom.Len())
	//lint:deterministic order-independent scatter into a dense exclusion table
	for t := range exclude {
		if id, ok := dom.ID(t); ok {
			excludeBits[id] = true
		}
	}
	return horPartN(d.Records, dense, dom.Len(), excludeBits, maxClusterSize, parallel)
}

// horPartN is the dense-domain core of HorPartN: dense holds the records
// remapped onto term ids below nTerms, emit holds the records the clusters
// are materialized from (the pipeline passes the dense records themselves;
// the exported wrapper passes the originals so callers see their own terms).
func horPartN(emit, dense []dataset.Record, nTerms int, excludeBits []bool, maxClusterSize, parallel int) [][]dataset.Record {
	if maxClusterSize < 2 {
		maxClusterSize = 2
	}
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	n := len(dense)
	if n == 0 {
		return nil
	}

	hp := &horPartition{
		records: emit,
		recs:    dense,
		nTerms:  nTerms,
		max:     maxClusterSize,
	}
	hp.spare.Store(int32(parallel - 1))
	hp.pool.New = func() any {
		return &mfBuf{counts: make([]int32, nTerms), stamp: make([]uint64, nTerms)}
	}
	hp.tables.New = func() any { return &supports{c: make([]int32, nTerms)} }
	hp.marks.New = func() any { return newMarks(n) }

	rootIgnore := make([]bool, nTerms)
	copy(rootIgnore, excludeBits)
	root := hpNode{idx: make([]int32, n)}
	for i := range root.idx {
		root.idx[i] = int32(i)
		root.occ += len(dense[i])
	}
	if n >= hp.max { // the root splits
		hp.post = newPostings(dense, nTerms)
		if hp.carries(root.occ) {
			root.sup = hp.tables.Get().(*supports)
			for t := range root.sup.c {
				root.sup.c[t] = int32(len(hp.post.of(int32(t))))
			}
		}
	}
	return hp.split(root, rootIgnore, 0)
}

// horPartition carries the shared, read-only remapping plus the parallelism
// budget of one HorPartN run.
type horPartition struct {
	records []dataset.Record
	recs    []dataset.Record // records as sorted dense term ids
	post    postings         // term -> indexes of recs, when the root splits
	nTerms  int
	max     int
	spare   atomic.Int32 // extra goroutines still allowed
	pool    sync.Pool    // *mfBuf epoch-stamped support counters
	tables  sync.Pool    // *supports, zeroed
	marks   sync.Pool    // *marks over recs, for divide
}

// hpNode is one node of the split tree: its records, their total term
// occurrences, and the node's per-term supports when it carries them.
type hpNode struct {
	idx []int32
	occ int
	sup *supports // nil: the node recounts its records to pick a split term
}

// supports is a carried support table, indexed by dense term id.
type supports struct{ c []int32 }

// carries reports whether a node with occ term occurrences keeps a support
// table. Picking the split term from a table scans all nTerms entries, while
// a recount walks the node's occurrences, so a table pays once the node
// holds at least as many occurrences as the domain has terms. The rule is
// monotone — both sides of a split hold fewer occurrences than their parent —
// so a node that recounts has only recounting descendants, and the tables
// alive at once belong to disjoint record sets of at least nTerms
// occurrences each: together no larger than the dense records themselves.
func (hp *horPartition) carries(occ int) bool {
	return occ > 0 && occ >= hp.nTerms
}

// mfBuf is a reusable support counter: a count is valid only when its stamp
// matches the current epoch, so resetting between splits is one increment
// instead of a second walk over the records.
type mfBuf struct {
	counts []int32
	stamp  []uint64
	epoch  uint64
}

// parallelSplitMin is the smallest branch worth a goroutine: below this the
// spawn overhead dwarfs the counting work.
const parallelSplitMin = 128

// maxSpawnDepth bounds the recursive region of split: spawning only pays
// near the root, and capping the recursion keeps the call stack shallow even
// on pathological inputs (a chain of singleton splits would otherwise nest
// one frame per domain term). Below this depth splitIter takes over with an
// explicit work stack.
const maxSpawnDepth = 48

// split partitions the node's records, emitting clusters in the preorder of
// the split tree (with-branch first). ignore is mutated and restored in
// place (mutate-and-undo) on sequential branches; only a branch handed to
// another goroutine gets its own copy. The node's support table, if any, is
// ceded to the call.
func (hp *horPartition) split(nd hpNode, ignore []bool, depth int) [][]dataset.Record {
	if depth >= maxSpawnDepth {
		return hp.splitIter(nd, ignore)
	}
	if len(nd.idx) == 0 {
		return nil
	}
	if len(nd.idx) < hp.max {
		hp.release(nd.sup)
		return [][]dataset.Record{hp.cluster(nd.idx)}
	}
	a, sup, ok := hp.splitTerm(nd, ignore)
	if !ok {
		// Every term is ignored: the records cannot be distinguished by any
		// unused term, so they form one (possibly oversized) cluster.
		hp.release(nd.sup)
		return [][]dataset.Record{hp.cluster(nd.idx)}
	}
	with, without := hp.divide(nd, a, sup)

	if min(len(with.idx), len(without.idx)) >= parallelSplitMin && hp.tryAcquire() {
		withIgnore := make([]bool, hp.nTerms)
		copy(withIgnore, ignore)
		withIgnore[a] = true
		var withClusters [][]dataset.Record
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			withClusters = hp.split(with, withIgnore, depth+1)
			hp.spare.Add(1)
		}()
		withoutClusters := hp.split(without, ignore, depth+1)
		wg.Wait()
		return append(withClusters, withoutClusters...)
	}
	ignore[a] = true
	withClusters := hp.split(with, ignore, depth+1)
	ignore[a] = false
	return append(withClusters, hp.split(without, ignore, depth+1)...)
}

// splitIter is the sequential, constant-stack form of split: an explicit
// work stack whose set/unset markers implement the same mutate-and-undo
// ignore discipline, emitting clusters in the same preorder.
func (hp *horPartition) splitIter(root hpNode, ignore []bool) [][]dataset.Record {
	type task struct {
		node  hpNode
		unset int32 // when ≥ 0: undo marker, clear ignore[unset] (node empty)
	}
	var clusters [][]dataset.Record
	stack := []task{{node: root, unset: -1}}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur.unset >= 0 {
			ignore[cur.unset] = false
			continue
		}
		nd := cur.node
		if len(nd.idx) == 0 {
			continue
		}
		if len(nd.idx) < hp.max {
			hp.release(nd.sup)
			clusters = append(clusters, hp.cluster(nd.idx))
			continue
		}
		a, sup, ok := hp.splitTerm(nd, ignore)
		if !ok {
			hp.release(nd.sup)
			clusters = append(clusters, hp.cluster(nd.idx))
			continue
		}
		with, without := hp.divide(nd, a, sup)
		// Execution order (LIFO): with-subtree under ignore[a], then the
		// undo marker, then the without-subtree.
		ignore[a] = true
		stack = append(stack, task{node: without, unset: -1})
		stack = append(stack, task{unset: a})
		stack = append(stack, task{node: with, unset: -1})
	}
	return clusters
}

// splitTerm returns the dense id and support of the node's most frequent
// term, skipping ignored terms, with ties toward the smaller id: from the
// node's support table when it carries one, else by a recount.
func (hp *horPartition) splitTerm(nd hpNode, ignore []bool) (int32, int32, bool) {
	if nd.sup == nil {
		return hp.mostFrequent(nd.idx, ignore)
	}
	best, bestSup := int32(-1), int32(0)
	for t, c := range nd.sup.c {
		if c > bestSup && !ignore[t] {
			best, bestSup = int32(t), c
		}
	}
	return best, bestSup, bestSup > 0
}

// divide splits the node's records by containment of dense term a, whose
// support sup among them is already known, keeping their relative order on
// both sides (each side allocates exactly once): through a's posting list,
// or by a search in each record when the list is much longer than the node
// (postings.go). A side that carries supports gets them without a recount
// of its own: the with side counts its records, and the without side takes
// over the parent's table minus the with side's supports — every occurrence
// lands on exactly one side, the rule the shard planner uses too. The
// parent's table is ceded to the call.
func (hp *horPartition) divide(nd hpNode, a, sup int32) (with, without hpNode) {
	m := hp.marks.Get().(*marks)
	with.idx, without.idx = hp.post.partition(nd.idx, a, m, func(ri int32) bool {
		_, found := slices.BinarySearch(hp.recs[ri], dataset.Term(a))
		return found
	}, make([]int32, 0, sup), make([]int32, 0, len(nd.idx)-int(sup)))
	hp.marks.Put(m)
	for _, ri := range with.idx {
		with.occ += len(hp.recs[ri])
	}
	without.occ = nd.occ - with.occ

	if nd.sup != nil && hp.carries(without.occ) {
		without.sup = nd.sup
	} else {
		hp.release(nd.sup)
	}
	if hp.carries(with.occ) {
		with.sup = hp.tables.Get().(*supports)
		hp.countInto(with.sup.c, with.idx)
		if without.sup != nil {
			wo := without.sup.c
			for t, c := range with.sup.c {
				wo[t] -= c
			}
		}
	} else if without.sup != nil {
		wo := without.sup.c
		for _, ri := range with.idx {
			for _, t := range hp.recs[ri] {
				wo[t]--
			}
		}
	}
	return with, without
}

// countInto adds the supports of the records identified by idx to counts.
func (hp *horPartition) countInto(counts []int32, idx []int32) {
	for _, ri := range idx {
		for _, t := range hp.recs[ri] {
			counts[t]++
		}
	}
}

// release zeroes a support table no node needs any more and returns it to
// the pool.
func (hp *horPartition) release(s *supports) {
	if s != nil {
		clear(s.c)
		hp.tables.Put(s)
	}
}

func (hp *horPartition) tryAcquire() bool {
	for {
		v := hp.spare.Load()
		if v <= 0 {
			return false
		}
		if hp.spare.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// cluster materializes one emitted cluster as original records.
func (hp *horPartition) cluster(idx []int32) []dataset.Record {
	out := make([]dataset.Record, len(idx))
	for i, ri := range idx {
		out[i] = hp.records[ri]
	}
	return out
}

// mostFrequent returns the local id and support of the term with the highest
// support among the records, skipping ignored terms; ties break toward the
// smaller id so the partitioning is deterministic. It serves the nodes too
// small to carry a support table.
func (hp *horPartition) mostFrequent(idx []int32, ignore []bool) (int32, int32, bool) {
	buf := hp.pool.Get().(*mfBuf)
	buf.epoch++
	ep := buf.epoch
	counts, stamp := buf.counts, buf.stamp
	best, bestSup := int32(-1), int32(0)
	for _, ri := range idx {
		for _, t := range hp.recs[ri] {
			lt := int32(t)
			if ignore[lt] {
				continue
			}
			c := int32(1)
			if stamp[lt] == ep {
				c = counts[lt] + 1
			} else {
				stamp[lt] = ep
			}
			counts[lt] = c
			if c > bestSup || (c == bestSup && lt < best) {
				best, bestSup = lt, c
			}
		}
	}
	hp.pool.Put(buf)
	return best, bestSup, bestSup > 0
}

// MergeUndersized repairs the partitioning for the k^m guarantee: a cluster
// with fewer than min records cannot offer min candidate records even for a
// term disclosed only in its term chunk (the Lemma 2 reconstruction needs
// |P| ≥ k records to pad). Undersized clusters are merged together, and a
// still-undersized remainder is absorbed into the largest cluster. Only if
// the whole dataset has fewer than min records can the result stay
// undersized.
func MergeUndersized(clusters [][]dataset.Record, min int) [][]dataset.Record {
	if min <= 1 {
		return clusters
	}
	out := clusters[:0]
	var pending []dataset.Record
	largest := -1
	push := func(c []dataset.Record) {
		out = append(out, c)
		if largest == -1 || len(c) > len(out[largest]) {
			largest = len(out) - 1
		}
	}
	for _, c := range clusters {
		if len(c) < min {
			pending = append(pending, c...)
			if len(pending) >= min {
				push(pending)
				pending = nil
			}
			continue
		}
		push(c)
	}
	if len(pending) > 0 {
		if largest >= 0 {
			out[largest] = append(append([]dataset.Record{}, out[largest]...), pending...)
		} else {
			out = append(out, pending)
		}
	}
	return out
}
