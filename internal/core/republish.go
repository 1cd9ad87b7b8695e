package core

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"

	"disasso/internal/dataset"
)

// Incremental delta republish. A full publish retains, besides the published
// forest, the HORPART shard-plan decision tree itself, as the shard planner
// (shardplan.go) builds it over the state's in-memory records: per node, the
// record count and the per-term supports shardCut's decision read. A delta (a
// batch of appended and/or removed records) is then routed down the tree by
// the same most-frequent-term containment rule HORPART uses, the counts along
// each path are adjusted, and every touched decision is re-verified. When all
// decisions stand, only the leaf shards that actually received or lost
// records are re-anonymized — with the same shard index, hence the same
// shard-keyed PRNG streams — and the untouched shards' published nodes are
// spliced through unchanged. A changed decision replans only its subtree;
// when that changes the subtree's shard count, the engine falls back to a
// full from-scratch republish.
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
// republish_hook_scratch.go) forces Apply through the from-scratch path, which
// is the oracle the equivalence tests compare against.

// republishScratch forces Apply to take the full from-scratch path instead of
// the dirty-shard delta path. The delta path must be byte-identical; tests and
// the republish_scratch CI build cross-check that.
var republishScratch = republishScratchDefault

// ErrRecordNotFound reports a Delta.Remove record that is not present in the
// dataset. The delta is rejected as a whole; the state is unchanged.
var ErrRecordNotFound = errors.New("core: record to remove not present")

// errShardShift is the internal signal that a delta moved a shard boundary in
// a way local replanning cannot absorb: a flipped shardCut decision whose
// rebuilt subtree has a different shard count, which would shift every later
// shard's preorder index (and so its PRNG stream). Apply catches it and falls
// back to a full republish.
var errShardShift = errors.New("core: delta shifts a shard boundary")

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
	// indexes in ascending order.
	DirtyShards, TotalShards int
	Dirty                    []int
	// ReplannedShards counts the dirty shards whose plan subtree was rebuilt
	// because the delta flipped a shardCut decision — churn the engine
	// absorbed locally instead of falling back to a full republish.
	ReplannedShards int
	// FullRepublish is set when the engine ran from scratch: either the delta
	// moved a shard-plan boundary, or the republish_scratch hook forced it.
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
	// count slices stay comparable across deltas). id is the inverse map.
	terms []dataset.Term
	//lint:ignore densedomain boundary bookkeeping keyed by global terms: the universe outlives any one shard-local dense domain
	id       map[dataset.Term]int32
	excluded []bool // per term index: a Sensitive key, never usable for splits

	// root is the plan tree; its nodes keep the supports shardCut read, so
	// Apply can re-verify every decision a delta touches. A leaf at or below
	// the cut keeps none (shardCut never reads them).
	root   *planNode
	shards []*repubShard

	// nextSeq numbers appended records. The logical dataset is the bag of
	// shard records in ascending sequence order (original insertion order,
	// with every append at the end) — the exact list a from-scratch run is
	// compared against. Shards keep their records seq-ascending, so the
	// scratch fallback can reconstruct the insertion order even when the new
	// plan's shards cut across the old ones.
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
		terms: make([]dataset.Term, dom.Len()),
		//lint:ignore densedomain boundary bookkeeping keyed by global terms: the universe outlives any one shard-local dense domain
		id:       make(map[dataset.Term]int32, dom.Len()),
		excluded: make([]bool, dom.Len()),
		nextSeq:  nextSeq,
	}
	for i := range st.terms {
		t := dom.TermOf(dataset.Term(i))
		st.terms[i] = t
		st.id[t] = int32(i)
		_, st.excluded[i] = opts.Sensitive[t]
	}
	p := st.planner(slices.Clone(st.excluded), nil)
	root, err := p.plan(memSource{st: st, records: records, seq: seq}, nil)
	if err != nil {
		return nil, err
	}
	st.root = root
	st.shards = make([]*repubShard, len(p.leaves))
	for i, l := range p.leaves {
		st.shards[i] = newRepubShard(l)
	}
	return st, nil
}

// planner returns a plan recursion over the state's universe that retains
// the supports of every node it decides. ignore and path are the context of
// the node it starts from; ignore is mutated and restored.
func (st *RepubState) planner(ignore []bool, path []int32) *planner[memSource] {
	return &planner[memSource]{
		terms: st.terms, maxShard: st.opts.MaxShardRecords, k: st.opts.K,
		ignore: ignore, path: path, retain: true,
	}
}

// memSource is the in-memory PlanSource of a RepubState: global-term records
// in insertion order with their sequence numbers, counted through the
// state's universe.
type memSource struct {
	st      *RepubState
	records []dataset.Record
	seq     []uint64
}

func (s memSource) Len() int { return len(s.records) }

func (s memSource) Count() ([]int32, error) {
	counts := make([]int32, len(s.st.terms))
	for _, r := range s.records {
		for _, t := range r {
			counts[s.st.id[t]]++
		}
	}
	return counts, nil
}

func (s memSource) Split(a, sup int32) (with, without memSource, withCounts []int32, err error) {
	term := s.st.terms[a]
	rest := len(s.records) - int(sup)
	with = memSource{st: s.st, records: make([]dataset.Record, 0, sup), seq: make([]uint64, 0, sup)}
	without = memSource{st: s.st, records: make([]dataset.Record, 0, rest), seq: make([]uint64, 0, rest)}
	withCounts = make([]int32, len(s.st.terms))
	for i, r := range s.records {
		if !r.Contains(term) {
			without.records = append(without.records, r)
			without.seq = append(without.seq, s.seq[i])
			continue
		}
		with.records = append(with.records, r)
		with.seq = append(with.seq, s.seq[i])
		for _, t := range r {
			withCounts[s.st.id[t]]++
		}
	}
	return with, without, withCounts, nil
}

// newRepubShard turns a planned leaf into a shard state.
func newRepubShard(l PlanLeaf[memSource]) *repubShard {
	return &repubShard{records: l.Source.records, seq: l.Source.seq, path: l.Path}
}

// runAll anonymizes every shard of a freshly built state and assembles the
// published dataset. A fresh universe is the sorted domain of all records,
// so the only shard of a one-shard plan runs over it instead of sorting the
// same records into the same domain again.
func (st *RepubState) runAll() *Anonymized {
	var whole *dataset.DenseDomain
	if len(st.shards) == 1 {
		whole = dataset.NewDenseDomainFromTerms(st.terms)
	}
	out := &Anonymized{K: st.opts.K, M: st.opts.M}
	for i, sh := range st.shards {
		sh.published = st.runShard(sh, i, whole)
		out.Clusters = append(out.Clusters, sh.published...)
	}
	return out
}

// runShard re-anonymizes one shard over its own local dense domain (dom, or
// built from the shard's records when nil). By the monotone-remap invariance
// the restored output is byte-identical to the shard's slice of a global
// run, and the shard index keys the same PRNG streams either way.
func (st *RepubState) runShard(sh *repubShard, index int, dom *dataset.DenseDomain) []*ClusterNode {
	if dom == nil {
		dom = dataset.NewDenseDomain(sh.records)
	}
	dense := dom.RemapAll(sh.records)
	excludeBits, sensitiveBits := SensitiveBits(st.opts, dom)
	for _, a := range sh.path {
		if id, ok := dom.ID(st.terms[a]); ok {
			excludeBits[id] = true
		}
	}
	nodes := AnonymizeShard(Shard{Records: dense, Ignore: excludeBits, Index: index}, dom.Len(), sensitiveBits, st.opts)
	RestoreClusters(nodes, dom)
	return nodes
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
		return st.applyScratch(delta, false)
	}
	anon, ns, stats, err := st.applyDelta(delta)
	if errors.Is(err, errShardShift) {
		return st.applyScratch(delta, true)
	}
	return anon, ns, stats, err
}

// applyScratch is the reference path: apply the delta to the insertion-ordered
// logical dataset and rebuild everything from scratch.
func (st *RepubState) applyScratch(delta Delta, fellBack bool) (*Anonymized, *RepubState, RepublishStats, error) {
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
	outR := make([]dataset.Record, 0, len(records)-len(removes)+len(appends))
	outS := make([]uint64, 0, cap(outR))
	if len(removes) == 0 {
		outR = append(outR, records...)
		outS = append(outS, seq...)
	} else {
		want := make(map[string]int, len(removes))
		for _, r := range removes {
			want[r.Key()]++
		}
		left := len(removes)
		for i, r := range records {
			if left > 0 {
				if k := r.Key(); want[k] > 0 {
					want[k]--
					left--
					continue
				}
			}
			outR = append(outR, r)
			outS = append(outS, seq[i])
		}
		if left > 0 {
			for _, r := range removes {
				if want[r.Key()] > 0 {
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

// nodeDelta accumulates the routing pass's effect on one plan node.
type nodeDelta struct {
	dn      int
	dcounts map[int32]int32 // per term index; sparse — deltas are small
}

// applyDelta is the incremental path: route the delta down the plan tree,
// re-verify every touched decision, re-anonymize only the dirty leaves.
func (st *RepubState) applyDelta(delta Delta) (*Anonymized, *RepubState, RepublishStats, error) {
	ns := &RepubState{
		opts:     st.opts,
		terms:    st.terms,
		id:       st.id,
		excluded: st.excluded,
		shards:   slices.Clone(st.shards),
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

	// Route every delta record down the tree by split-term containment,
	// accumulating count deltas per touched node and the per-shard append and
	// remove lists (both in delta order).
	touched := make(map[*planNode]*nodeDelta)
	shardAppend := make(map[int][]seqRecord)
	shardRemove := make(map[int][]dataset.Record)
	route := func(r dataset.Record, sign int32) int {
		nd := st.root
		for {
			d := touched[nd]
			if d == nil {
				d = &nodeDelta{dcounts: make(map[int32]int32)}
				touched[nd] = d
			}
			d.dn += int(sign)
			for _, t := range r {
				d.dcounts[ns.id[t]] += sign
			}
			if nd.term < 0 {
				return nd.shard
			}
			if r.Contains(ns.terms[nd.term]) {
				nd = nd.with
			} else {
				nd = nd.without
			}
		}
	}
	for _, r := range delta.Remove {
		si := route(r, -1)
		shardRemove[si] = append(shardRemove[si], r)
	}
	for i, r := range delta.Append {
		si := route(r, +1)
		shardAppend[si] = append(shardAppend[si], seqRecord{r: r, seq: st.nextSeq + uint64(i)})
	}

	// Rebuild the touched spine copy-on-write, re-verifying each decision
	// against the updated counts. Dirty leaves get fresh shard states. A
	// flipped decision invalidates only its subtree: replant rebuilds that
	// subtree's plan from its updated records, and as long as the new plan
	// has the same shard count, every shard outside the subtree keeps its
	// preorder index and the splice stays valid. Only a count change — which
	// would renumber every later shard and so re-key its PRNG stream —
	// aborts to the from-scratch fallback. The descent keeps the planner's
	// ignore set and split path current, so a replant starts from exactly
	// the context a from-scratch run would reach its subtree with.
	var dirty []int
	replanned := 0
	p := ns.planner(slices.Clone(ns.excluded), nil)

	// replant rebuilds the plan subtree rooted at old: its leaves' records
	// are merged back into insertion (seq) order, the subtree's slice of the
	// delta is applied, and the planner reruns over the result from the
	// node's updated counts. Preorder numbering makes the old leaves a
	// contiguous index range; the new leaves must fill the same range. A
	// touched leaf is replanted too: the planner recounts it only if the
	// delta grew it past the cut, and a leaf that must now split changes
	// the shard count.
	replant := func(old *planNode, counts []int32) (*planNode, error) {
		first, last := old, old
		for first.term >= 0 {
			first = first.with
		}
		for last.term >= 0 {
			last = last.without
		}
		lo, hi := first.shard, last.shard+1
		var removes []dataset.Record
		var appends []seqRecord
		for si := lo; si < hi; si++ {
			removes = append(removes, shardRemove[si]...)
			appends = append(appends, shardAppend[si]...)
		}
		slices.SortFunc(appends, func(a, b seqRecord) int { return cmp.Compare(a.seq, b.seq) })
		records, seq := mergeShards(st.shards[lo:hi])
		records, seq, err := applyWithSeq(records, seq, removes, appends)
		if err != nil {
			return nil, err
		}
		p.leaves, p.first = nil, lo
		nd, err := p.plan(memSource{st: ns, records: records, seq: seq}, counts)
		if err != nil {
			return nil, err
		}
		if len(p.leaves) != hi-lo {
			return nil, errShardShift
		}
		for i, l := range p.leaves {
			ns.shards[lo+i] = newRepubShard(l)
			dirty = append(dirty, lo+i)
		}
		return nd, nil
	}

	var rebuild func(old *planNode) (*planNode, error)
	rebuild = func(old *planNode) (*planNode, error) {
		d := touched[old]
		if d == nil {
			return old, nil
		}
		var counts []int32
		if old.counts != nil {
			counts = make([]int32, len(ns.terms))
			copy(counts, old.counts)
			//lint:deterministic order-independent additive scatter into dense counts
			for idx, dc := range d.dcounts {
				counts[idx] += dc
			}
		}
		if old.term < 0 {
			return replant(old, counts)
		}
		n := old.n + d.dn
		best, sup, split := p.decide(n, counts)
		if !split || best != old.term {
			before := len(dirty)
			nd, err := replant(old, counts)
			replanned += len(dirty) - before
			return nd, err
		}
		nd := &planNode{n: n, counts: counts, term: best, sup: sup, shard: -1}
		p.ignore[best] = true
		p.path = append(p.path, best)
		w, err := rebuild(old.with)
		p.path = p.path[:len(p.path)-1]
		p.ignore[best] = false
		if err != nil {
			return nil, err
		}
		wo, err := rebuild(old.without)
		if err != nil {
			return nil, err
		}
		nd.with, nd.without = w, wo
		return nd, nil
	}
	root, err := rebuild(st.root)
	if err != nil {
		return nil, nil, RepublishStats{}, err
	}
	ns.root = root

	// Re-anonymize the dirty shards (same index, same PRNG streams) and
	// splice every clean shard's published nodes straight through.
	slices.Sort(dirty)
	for _, si := range dirty {
		sh := ns.shards[si]
		sh.published = ns.runShard(sh, si, nil)
	}
	out := &Anonymized{K: ns.opts.K, M: ns.opts.M}
	for _, sh := range ns.shards {
		out.Clusters = append(out.Clusters, sh.published...)
	}
	return out, ns, RepublishStats{
		Appended:        len(delta.Append),
		Removed:         len(delta.Remove),
		DirtyShards:     len(dirty),
		TotalShards:     len(ns.shards),
		Dirty:           dirty,
		ReplannedShards: replanned,
	}, nil
}
