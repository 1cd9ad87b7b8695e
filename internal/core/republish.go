package core

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"

	"disasso/internal/dataset"
	"disasso/internal/par"
)

// Incremental delta republish. A full publish retains, besides the published
// forest, the HORPART shard-plan decision tree itself, as the shard planner
// (shardplan.go) builds it over the state's in-memory records: per node, the
// record count, the per-term supports shardCut's decision read and the
// number of leaves below. A delta (a batch of appended and/or removed
// records) is applied in one walk down the tree that carries each node's own
// slice of the delta, split at every node by the same most-frequent-term
// containment rule HORPART uses. A node the slice touches adds it to its
// counts and re-verifies its decision. When the decision stands, the walk
// splits the slice and descends; when it flips, or the node is a leaf, the
// node's subtree is replanted from its records with the slice applied. A
// subtree the delta does not reach keeps its shards.
//
// Shards are numbered in plan preorder, and a shard's index keys its PRNG
// streams, so a replant that changes its subtree's shard count renumbers
// every later shard; the walk re-runs those at their new index, while every
// shard before the change keeps its index. Such a delta reports
// FullRepublish, because the shards no longer line up with the old ones
// index for index, although it re-anonymizes only the shards that moved or
// changed. A new shard whose index, insertion seqs and split-path set equal
// an old shard's keeps that shard and its published nodes: RunShard's output
// is a function of exactly those inputs (the seqs fix the records and their
// order, the path set the barred terms, the index the PRNG streams) and the
// options, so re-running it would reproduce the same bytes. Only the other
// shards are re-anonymized.
//
// Two proven invariances make the dirty-shard re-run exact:
//
//  1. Shard membership and within-shard record order are content-based: a
//     record's shard is determined by which split terms it contains, and
//     the planner's in-memory split preserves relative record order, so
//     "old records minus removals, then appends at the end" is exactly the
//     shard list a from-scratch run over the same logical dataset would
//     produce.
//  2. The pipeline is invariant under monotone dense-domain remapping
//     (anonymize.go), so each dirty shard can be re-run over its own local
//     dense domain and still produce bytes identical to the global run.
//
// The republish_scratch build tag (hook pair republish_hook_default.go /
// republish_hook_scratch.go) forces Apply through the from-scratch path,
// applyScratch, which is the oracle the equivalence tests compare against.

// republishScratch forces Apply to take the full from-scratch path instead of
// the dirty-shard delta path. The delta path must be byte-identical; tests and
// the republish_scratch CI build cross-check that.
var republishScratch = republishScratchDefault

// ErrRecordNotFound reports a Delta.Remove record that is not present in the
// dataset. The delta is rejected as a whole; the state is unchanged.
var ErrRecordNotFound = errors.New("core: record to remove not present")

// Delta is one republish request: records to remove from and append to the
// logical dataset. Removals are applied first (each removes one occurrence;
// datasets have bag semantics), then appends go to the end. All records must
// be non-empty and normalized.
type Delta struct {
	Append []dataset.Record
	Remove []dataset.Record
}

// RepublishStats reports what a delta republish did.
type RepublishStats struct {
	Appended, Removed int
	// DirtyShards of TotalShards were re-anonymized; Dirty lists their
	// indexes in ascending order. A dirty shard is a changed one: its
	// records or its split-path set differ from the old shard at its index,
	// or it kept them but moved to another index, because a replant before
	// it changed the shard count. A shard that comes back unchanged at its
	// index is not dirty, even inside a replanted subtree.
	DirtyShards, TotalShards int
	Dirty                    []int
	// ReplannedShards counts the dirty shards inside a plan subtree that was
	// rebuilt because the delta flipped a shardCut decision.
	ReplannedShards int
	// FullRepublish is set when the new shards do not line up with the old
	// ones index for index, so state a caller keeps per shard index must be
	// rebuilt for every shard: the delta changed the shard count, or the
	// republish_scratch oracle build ran from scratch. When it is clear, the
	// shard count is unchanged and exactly the Dirty shards differ. A
	// shard-count change still re-anonymizes only its Dirty shards.
	FullRepublish bool
}

// repubShard is one leaf of the plan tree: its records (global terms, in
// ascending insertion order), their insertion sequence numbers, the
// split-path term indexes consumed above it, and its published nodes.
type repubShard struct {
	records   []dataset.Record
	seq       []uint64 // parallel to records, strictly ascending
	path      []int32  // split-path term indexes, barred from splitting inside
	published []*ClusterNode
}

// RepubState is the retained state of a publish that supports incremental
// delta republish. It is immutable: Apply returns a new state sharing every
// untouched shard and subtree with the old one, so concurrent readers of the
// old snapshot are never disturbed.
type RepubState struct {
	opts Options // validated and defaulted

	// The republish term universe: every term the dataset has ever contained,
	// in first-seen order (ascending for the initial build; terms appended
	// later keep their index for the lifetime of the state chain, so plan-node
	// count slices stay comparable across deltas). id is the inverse map, and
	// dom the initial build's domain, whose dense ids are the universe
	// indexes of its terms (see index).
	terms []dataset.Term
	//lint:ignore densedomain boundary bookkeeping keyed by global terms: the universe outlives any one shard-local dense domain
	id       map[dataset.Term]int32
	dom      *dataset.DenseDomain
	excluded []bool // per term index: a Sensitive key, never usable for splits

	// root is the plan tree; its nodes keep the supports shardCut read, so
	// Apply can re-verify every decision a delta touches. A leaf at or below
	// the cut keeps none (shardCut never reads them).
	root   *planNode
	shards []*repubShard

	// nextSeq numbers appended records. The logical dataset is the bag of
	// shard records in ascending sequence order (original insertion order,
	// with every append at the end) — the exact list a from-scratch run is
	// compared against. Shards keep their records seq-ascending, so a
	// replant and the scratch oracle can merge them back into insertion
	// order.
	nextSeq uint64
}

// AnonymizeWithState is Anonymize plus retained delta-republish state: the
// published output is byte-identical to Anonymize(d, opts), and the returned
// state accepts Apply calls for incremental republishes.
func AnonymizeWithState(d *dataset.Dataset, opts Options) (*Anonymized, *RepubState, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: invalid input: %w", err)
	}
	seq := make([]uint64, d.Len())
	for i := range seq {
		seq[i] = uint64(i)
	}
	st, err := newRepubState(d.Records, seq, uint64(d.Len()), opts.withDefaults())
	if err != nil {
		return nil, nil, err
	}
	return st.runAll(), st, nil
}

// newRepubState builds the plan tree and shard lists for records, whose
// insertion sequence numbers are seq (strictly ascending). opts must be
// validated and defaulted. Published nodes are not yet materialized.
func newRepubState(records []dataset.Record, seq []uint64, nextSeq uint64, opts Options) (*RepubState, error) {
	dom := dataset.NewDenseDomain(records)
	st := &RepubState{
		opts:  opts,
		terms: dom.Terms(),
		//lint:ignore densedomain boundary bookkeeping keyed by global terms: the universe outlives any one shard-local dense domain
		id:       make(map[dataset.Term]int32, dom.Len()),
		dom:      dom,
		excluded: make([]bool, dom.Len()),
		nextSeq:  nextSeq,
	}
	for i, t := range st.terms {
		st.id[t] = int32(i)
		_, st.excluded[i] = opts.Sensitive[t]
	}
	var leaves []PlanLeaf[memSource]
	p := st.planner(slices.Clone(st.excluded), nil, &leaves)
	root, err := p.plan(newMemSource(st, records, seq), nil)
	if err != nil {
		return nil, err
	}
	st.root = root
	st.shards = make([]*repubShard, len(leaves))
	for i, l := range leaves {
		st.shards[i] = newRepubShard(l)
	}
	return st, nil
}

// planner returns a plan recursion over the state's universe that retains
// the supports of every node it decides and appends the leaves to *leaves.
// ignore and path are the context of the node it starts from; ignore is
// mutated and restored.
func (st *RepubState) planner(ignore []bool, path []int32, leaves *[]PlanLeaf[memSource]) *planner[memSource] {
	return &planner[memSource]{
		terms: st.terms, maxShard: st.opts.MaxShardRecords, k: st.opts.K,
		ignore: ignore, path: path, retain: true,
		emit: func(l PlanLeaf[memSource]) error {
			*leaves = append(*leaves, l)
			return nil
		},
	}
}

// memSource is the in-memory PlanSource of a RepubState: one node's records,
// as their positions in the plan root's record list, ascending (so in
// insertion order). Splits partition the positions in place.
type memSource struct {
	root *memRoot
	pos  []int32
}

// memRoot is what the nodes of one in-memory plan share: the root's
// global-term records and their sequence numbers, read and never modified,
// and, from the first count or split on, the records as term indexes of the
// state's universe, their postings and the split scratch.
type memRoot struct {
	st      *RepubState
	records []dataset.Record
	seq     []uint64

	uni   []dataset.Record // records as universe term indexes; nil until indexed
	post  postings
	marks *marks
	moved []int32 // a split's with side, before it moves behind the without side
}

// newMemSource returns the plan root over records, whose insertion
// sequence numbers are seq.
func newMemSource(st *RepubState, records []dataset.Record, seq []uint64) memSource {
	pos := make([]int32, len(records))
	for i := range pos {
		pos[i] = int32(i)
	}
	return memSource{root: &memRoot{st: st, records: records, seq: seq}, pos: pos}
}

// index returns the universe index of a term the universe holds: its dense
// id when the initial domain holds it, since the initial universe is that
// domain in id order, and otherwise, for a term a delta added or a universe
// built without a domain, its entry in id.
func (st *RepubState) index(t dataset.Term) int32 {
	if st.dom != nil {
		if i, ok := st.dom.ID(t); ok {
			return i
		}
	}
	return st.id[t]
}

// index remaps the root's records onto the universe's term indexes, once,
// and builds their postings.
func (r *memRoot) index() {
	if r.uni != nil {
		return
	}
	total := 0
	for _, rec := range r.records {
		total += len(rec)
	}
	flat := make([]dataset.Term, 0, total)
	r.uni = make([]dataset.Record, len(r.records))
	for i, rec := range r.records {
		start := len(flat)
		for _, t := range rec {
			flat = append(flat, dataset.Term(r.st.index(t)))
		}
		r.uni[i] = flat[start:len(flat):len(flat)]
	}
	r.post = newPostings(r.uni, len(r.st.terms))
	r.marks = newMarks(len(r.records))
}

func (s memSource) Len() int { return len(s.pos) }

func (s memSource) Count() ([]int32, error) {
	s.root.index()
	counts := make([]int32, len(s.root.st.terms))
	for _, p := range s.pos {
		for _, t := range s.root.uni[p] {
			counts[t]++
		}
	}
	return counts, nil
}

// Split is a stable in-place partition, like the streaming planner's slab
// split: the without side compacts at the front, and the with side, planned
// first, moves behind it.
func (s memSource) Split(a, sup int32) (with, without memSource, withCounts []int32, err error) {
	r := s.root
	r.index()
	term := r.st.terms[a]
	moved, kept := r.post.partition(s.pos, a, r.marks, func(p int32) bool {
		return r.records[p].Contains(term)
	}, r.moved[:0], s.pos[:0])
	withCounts = make([]int32, len(r.st.terms))
	for _, p := range moved {
		for _, t := range r.uni[p] {
			withCounts[t]++
		}
	}
	n := len(s.pos)
	copy(s.pos[len(kept):], moved)
	r.moved = moved
	with = memSource{root: r, pos: s.pos[len(kept):n:n]}
	without = memSource{root: r, pos: kept[:len(kept):len(kept)]}
	return with, without, withCounts, nil
}

// sameSeqs reports whether the source's records carry exactly the insertion
// sequence numbers seq, in order.
func (s memSource) sameSeqs(seq []uint64) bool {
	if len(seq) != len(s.pos) {
		return false
	}
	for i, p := range s.pos {
		if s.root.seq[p] != seq[i] {
			return false
		}
	}
	return true
}

// newRepubShard turns a planned leaf into a shard state. The leaf of a plan
// that never split shares the root's slices.
func newRepubShard(l PlanLeaf[memSource]) *repubShard {
	r := l.Source.root
	if len(l.Source.pos) == len(r.records) {
		return &repubShard{records: r.records, seq: r.seq, path: l.Path}
	}
	sh := &repubShard{
		records: make([]dataset.Record, len(l.Source.pos)),
		seq:     make([]uint64, len(l.Source.pos)),
		path:    l.Path,
	}
	for i, p := range l.Source.pos {
		sh.records[i], sh.seq[i] = r.records[p], r.seq[p]
	}
	return sh
}

// runAll anonymizes every shard of a freshly built state and assembles the
// published dataset. A fresh state's domain is the domain of all records,
// so the only shard of a one-shard plan runs over it instead of building the
// same domain again.
func (st *RepubState) runAll() *Anonymized {
	var whole *dataset.DenseDomain
	all := make([]int, len(st.shards))
	for i := range all {
		all[i] = i
	}
	if len(st.shards) == 1 {
		whole = st.dom
	}
	st.runShards(all, whole)
	return st.published()
}

// runShards re-anonymizes the listed shards concurrently, each over its own
// local dense domain (dom, or built from the shard's records when nil). Each
// shard's output lands in its own slot and is keyed by its index, which
// fixes its PRNG streams, so the bytes do not depend on scheduling.
func (st *RepubState) runShards(shards []int, dom *dataset.DenseDomain) {
	par.Do(st.opts.Parallel, len(shards), func(j int) {
		sh := st.shards[shards[j]]
		path := make([]dataset.Term, len(sh.path))
		for i, a := range sh.path {
			path[i] = st.terms[a]
		}
		sh.published = RunShard(sh.records, path, shards[j], dom, st.opts)
	})
}

// published concatenates the shards' published nodes in plan order.
func (st *RepubState) published() *Anonymized {
	out := &Anonymized{K: st.opts.K, M: st.opts.M}
	for _, sh := range st.shards {
		out.Clusters = append(out.Clusters, sh.published...)
	}
	return out
}

// Records returns the logical dataset behind the state, in insertion order
// (original order, every surviving append at the end). Anonymizing exactly
// this list from scratch with the state's options reproduces the current
// published bytes.
func (st *RepubState) Records() []dataset.Record {
	records, _ := mergeShards(st.shards)
	return records
}

// mergeShards flattens shards back into insertion (sequence) order.
func mergeShards(shards []*repubShard) ([]dataset.Record, []uint64) {
	var records []dataset.Record
	var seq []uint64
	for _, sh := range shards {
		records = append(records, sh.records...)
		seq = append(seq, sh.seq...)
	}
	order := make([]int, len(records))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(seq[a], seq[b]) })
	outR := make([]dataset.Record, len(order))
	outS := make([]uint64, len(order))
	for i, j := range order {
		outR[i], outS[i] = records[j], seq[j]
	}
	return outR, outS
}

// NumRecords returns the logical dataset size.
func (st *RepubState) NumRecords() int {
	total := 0
	for _, sh := range st.shards {
		total += len(sh.records)
	}
	return total
}

// NumShards returns the number of shards in the plan.
func (st *RepubState) NumShards() int { return len(st.shards) }

// ShardClusters returns shard i's published nodes. Callers must treat them as
// immutable: clean shards share their nodes across snapshots. Its one caller
// is bench/replay.
func (st *RepubState) ShardClusters(i int) []*ClusterNode { return st.shards[i].published }

// Options returns the effective (defaulted) options the state publishes with.
func (st *RepubState) Options() Options { return st.opts }

// Apply republishes the dataset with the delta applied: removals first (each
// drops one occurrence of the record; a removal with no occurrence fails the
// whole delta with ErrRecordNotFound), then appends at the end. It returns the
// new published dataset and the successor state; the receiver is unchanged and
// stays valid. The published bytes are exactly those of a from-scratch
// Anonymize over the new logical dataset; the delta path merely skips the
// shards the delta cannot have affected.
func (st *RepubState) Apply(delta Delta) (*Anonymized, *RepubState, RepublishStats, error) {
	for _, r := range delta.Append {
		if len(r) == 0 {
			return nil, nil, RepublishStats{}, errors.New("core: delta appends an empty record")
		}
		if !r.IsNormalized() {
			return nil, nil, RepublishStats{}, fmt.Errorf("core: delta append record not normalized: %v", r)
		}
	}
	for _, r := range delta.Remove {
		if len(r) == 0 {
			return nil, nil, RepublishStats{}, errors.New("core: delta removes an empty record")
		}
		if !r.IsNormalized() {
			return nil, nil, RepublishStats{}, fmt.Errorf("core: delta remove record not normalized: %v", r)
		}
	}
	if republishScratch {
		return st.applyScratch(delta)
	}
	return st.applyDelta(delta)
}

// applyScratch is the reference path: apply the delta to the insertion-ordered
// logical dataset and rebuild everything from scratch.
func (st *RepubState) applyScratch(delta Delta) (*Anonymized, *RepubState, RepublishStats, error) {
	records, seq := mergeShards(st.shards)
	appends := make([]seqRecord, len(delta.Append))
	for i, r := range delta.Append {
		appends[i] = seqRecord{r: r, seq: st.nextSeq + uint64(i)}
	}
	records, seq, err := applyWithSeq(records, seq, delta.Remove, appends)
	if err != nil {
		return nil, nil, RepublishStats{}, err
	}
	ns, err := newRepubState(records, seq, st.nextSeq+uint64(len(delta.Append)), st.opts)
	if err != nil {
		return nil, nil, RepublishStats{}, err
	}
	anon := ns.runAll()
	dirty := make([]int, len(ns.shards))
	for i := range dirty {
		dirty[i] = i
	}
	return anon, ns, RepublishStats{
		Appended:      len(delta.Append),
		Removed:       len(delta.Remove),
		DirtyShards:   len(ns.shards),
		TotalShards:   len(ns.shards),
		Dirty:         dirty,
		FullRepublish: true,
	}, nil
}

// applyToRecords applies a delta to a record list: removals drop the first
// occurrence of each removed record (bag semantics), appends go to the end.
// It is the plain-list form of applyWithSeq; the equivalence tests use it to
// maintain their reference logical dataset.
func applyToRecords(records []dataset.Record, delta Delta) ([]dataset.Record, error) {
	seq := make([]uint64, len(records))
	for i := range seq {
		seq[i] = uint64(i)
	}
	appends := make([]seqRecord, len(delta.Append))
	for i, r := range delta.Append {
		appends[i] = seqRecord{r: r, seq: uint64(len(records) + i)}
	}
	out, _, err := applyWithSeq(records, seq, delta.Remove, appends)
	return out, err
}

// seqRecord is an appended record with its assigned sequence number.
type seqRecord struct {
	r   dataset.Record
	seq uint64
}

// applyWithSeq applies a delta to a seq-ascending record list: each removal
// drops the earliest occurrence of the removed record, appends go to the end
// in their given order. A removal with no occurrence fails the whole delta.
func applyWithSeq(records []dataset.Record, seq []uint64, removes []dataset.Record, appends []seqRecord) ([]dataset.Record, []uint64, error) {
	// A delta may remove more records than the list holds; it fails below.
	outR := make([]dataset.Record, 0, max(len(records)-len(removes), 0)+len(appends))
	outS := make([]uint64, 0, cap(outR))
	if len(removes) == 0 {
		outR = append(outR, records...)
		outS = append(outS, seq...)
	} else {
		want := newRemovals(removes)
		left := len(removes)
		for i, r := range records {
			if left > 0 {
				if j := want.find(r); j >= 0 && want.count[j] > 0 {
					want.count[j]--
					left--
					continue
				}
			}
			outR = append(outR, r)
			outS = append(outS, seq[i])
		}
		if left > 0 {
			for _, r := range removes {
				if want.count[want.find(r)] > 0 {
					return nil, nil, fmt.Errorf("%w: %v", ErrRecordNotFound, r)
				}
			}
		}
	}
	for _, a := range appends {
		outR = append(outR, a.r)
		outS = append(outS, a.seq)
	}
	return outR, outS, nil
}

// removals counts a delta's removals per distinct record. They are bucketed
// by a hash of their terms and a candidate is confirmed with Record.Equal,
// so matching a record against them allocates nothing.
type removals struct {
	buckets map[uint64][]int32 // term hash -> distinct removals with that hash
	recs    []dataset.Record   // distinct removals
	count   []int              // per distinct removal, occurrences not yet matched
}

func newRemovals(removes []dataset.Record) *removals {
	rm := &removals{buckets: make(map[uint64][]int32, len(removes))}
	for _, r := range removes {
		if j := rm.find(r); j >= 0 {
			rm.count[j]++
			continue
		}
		h := hashTerms(r)
		rm.buckets[h] = append(rm.buckets[h], int32(len(rm.recs)))
		rm.recs = append(rm.recs, r)
		rm.count = append(rm.count, 1)
	}
	return rm
}

// find returns the index of the distinct removal equal to r, or -1.
func (rm *removals) find(r dataset.Record) int32 {
	for _, j := range rm.buckets[hashTerms(r)] {
		if rm.recs[j].Equal(r) {
			return j
		}
	}
	return -1
}

// hashTerms hashes a record's terms: FNV-1a over their 32-bit values.
func hashTerms(r dataset.Record) uint64 {
	h := uint64(14695981039346656037)
	for _, t := range r {
		h = (h ^ uint64(uint32(t))) * 1099511628211
	}
	return h
}

// samePathSet reports whether two split paths consumed the same terms, in
// any order: RunShard reads a path only as a set of barred terms.
func samePathSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// splitOn partitions a slice of the delta stably and in place on term t,
// like memSource.Split: the elements whose record lacks t compact at the
// front and those that hold it move behind them, each side in its given
// order. moved is the scratch the with side passes through.
func splitOn[E any](s []E, t dataset.Term, record func(E) dataset.Record, moved *[]E) (with, without []E) {
	w, kept := (*moved)[:0], s[:0]
	for _, e := range s {
		if record(e).Contains(t) {
			w = append(w, e)
		} else {
			kept = append(kept, e)
		}
	}
	copy(s[len(kept):], w)
	*moved = w
	return s[len(kept):], kept
}

// applyDelta is the incremental path: one walk down the plan tree that
// carries each node's slice of the delta, re-verifies every decision the
// delta touches, and re-anonymizes only the shards that changed or moved.
func (st *RepubState) applyDelta(delta Delta) (*Anonymized, *RepubState, RepublishStats, error) {
	ns := &RepubState{
		opts:     st.opts,
		terms:    st.terms,
		id:       st.id,
		dom:      st.dom,
		excluded: st.excluded,
		shards:   make([]*repubShard, 0, len(st.shards)),
		nextSeq:  st.nextSeq + uint64(len(delta.Append)),
	}
	// Extend the universe copy-on-write with terms first seen in this delta.
	grown := false
	for _, r := range delta.Append {
		for _, t := range r {
			if _, ok := ns.id[t]; ok {
				continue
			}
			if !grown {
				ns.terms = slices.Clone(ns.terms)
				ns.id = maps.Clone(ns.id)
				ns.excluded = slices.Clone(ns.excluded)
				grown = true
			}
			ns.id[t] = int32(len(ns.terms))
			ns.terms = append(ns.terms, t)
			_, sens := st.opts.Sensitive[t]
			ns.excluded = append(ns.excluded, sens)
		}
	}
	appends := make([]seqRecord, len(delta.Append))
	for i, r := range delta.Append {
		appends[i] = seqRecord{r: r, seq: st.nextSeq + uint64(i)}
	}

	// The walk appends the new plan's shards to ns.shards in preorder, so
	// len(ns.shards) is the new index of the next leaf; next is its old
	// index. They differ once a replant has changed the shard count. The
	// descent keeps the planner's ignore set and split path current, so a
	// replant starts from exactly the context a from-scratch run would reach
	// its subtree with.
	var dirty []int
	next, replanned := 0, 0
	var leaves []PlanLeaf[memSource]
	p := ns.planner(slices.Clone(ns.excluded), nil, &leaves)

	// keep carries over the subtree at old, which the delta does not reach:
	// its shards stay as they are at an unchanged index, and re-run over
	// the same records at a moved one.
	keep := func(old *planNode) *planNode {
		moved := len(ns.shards) != next
		for _, sh := range st.shards[next : next+old.leaves] {
			if moved {
				dirty = append(dirty, len(ns.shards))
				sh = &repubShard{records: sh.records, seq: sh.seq, path: sh.path}
			}
			ns.shards = append(ns.shards, sh)
		}
		next += old.leaves
		return old
	}

	// replant rebuilds the subtree at old: its shards' records are merged
	// back into insertion (seq) order, its slice of the delta is applied, and
	// the planner reruns over the result from the node's updated counts. A
	// new leaf that lands on the index of one of the subtree's old shards,
	// with that shard's seqs and split-path set, keeps it. A touched leaf is
	// replanted too: the planner recounts it only if the delta grew it past
	// the cut.
	replant := func(old *planNode, counts []int32, removes []dataset.Record, appends []seqRecord) (*planNode, error) {
		lo, hi := next, next+old.leaves
		next = hi
		records, seq := mergeShards(st.shards[lo:hi])
		records, seq, err := applyWithSeq(records, seq, removes, appends)
		if err != nil {
			return nil, err
		}
		leaves = leaves[:0]
		nd, err := p.plan(newMemSource(ns, records, seq), counts)
		if err != nil {
			return nil, err
		}
		for _, l := range leaves {
			si := len(ns.shards)
			if si >= lo && si < hi {
				if old := st.shards[si]; l.Source.sameSeqs(old.seq) && samePathSet(old.path, l.Path) {
					ns.shards = append(ns.shards, old) // RunShard would reproduce old.published
					continue
				}
			}
			dirty = append(dirty, si)
			ns.shards = append(ns.shards, newRepubShard(l))
		}
		return nd, nil
	}

	// apply rebuilds the subtree at old under its slice of the delta, both
	// lists in delta order (so the appends stay seq-ascending). The slices
	// are partitioned in place, so the caller's removals are copied first.
	var movedR []dataset.Record
	var movedA []seqRecord
	var apply func(old *planNode, removes []dataset.Record, appends []seqRecord) (*planNode, error)
	apply = func(old *planNode, removes []dataset.Record, appends []seqRecord) (*planNode, error) {
		if len(removes) == 0 && len(appends) == 0 {
			return keep(old), nil
		}
		var counts []int32
		if old.counts != nil {
			counts = make([]int32, len(ns.terms))
			copy(counts, old.counts)
			for _, r := range removes {
				for _, t := range r {
					counts[ns.index(t)]--
				}
			}
			for _, a := range appends {
				for _, t := range a.r {
					counts[ns.index(t)]++
				}
			}
		}
		if old.term < 0 {
			return replant(old, counts, removes, appends)
		}
		n := old.n - len(removes) + len(appends)
		if best, _, split := p.decide(n, counts); !split || best != old.term {
			before := len(dirty)
			nd, err := replant(old, counts, removes, appends)
			replanned += len(dirty) - before
			return nd, err
		}
		term := ns.terms[old.term]
		withR, withoutR := splitOn(removes, term, func(r dataset.Record) dataset.Record { return r }, &movedR)
		withA, withoutA := splitOn(appends, term, func(a seqRecord) dataset.Record { return a.r }, &movedA)
		p.ignore[old.term] = true
		p.path = append(p.path, old.term)
		w, err := apply(old.with, withR, withA)
		p.path = p.path[:len(p.path)-1]
		p.ignore[old.term] = false
		if err != nil {
			return nil, err
		}
		wo, err := apply(old.without, withoutR, withoutA)
		if err != nil {
			return nil, err
		}
		return &planNode{n: n, counts: counts, term: old.term, with: w, without: wo, leaves: w.leaves + wo.leaves}, nil
	}
	root, err := apply(st.root, slices.Clone(delta.Remove), appends)
	if err != nil {
		return nil, nil, RepublishStats{}, err
	}
	ns.root = root

	// Re-anonymize the dirty shards, each keyed by its index, and splice
	// every kept shard's published nodes straight through.
	ns.runShards(dirty, nil)
	return ns.published(), ns, RepublishStats{
		Appended:        len(delta.Append),
		Removed:         len(delta.Remove),
		DirtyShards:     len(dirty),
		TotalShards:     len(ns.shards),
		Dirty:           dirty,
		ReplannedShards: replanned,
		FullRepublish:   len(ns.shards) != len(st.shards),
	}, nil
}
