package core

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"

	"disasso/internal/dataset"
	"disasso/internal/par"
)

// anonymizeWork counts entries into the per-shard anonymization kernel across
// every pipeline variant — full runs, streamed shards and delta republishes
// all funnel through AnonymizeShard. The snapshot-recovery tests assert the
// counter stays flat across a restart: recovering a persisted publication
// must do zero anonymization work.
var anonymizeWork atomic.Int64

// AnonymizeWorkCount returns the number of shard anonymizations performed by
// this process so far.
func AnonymizeWorkCount() int64 { return anonymizeWork.Load() }

// DefaultMaxClusterSize is the horizontal-partitioning threshold used when
// Options.MaxClusterSize is zero. Clusters of a few dozen records keep the
// vertical partitioning local (limiting disassociation's reach, as Section 3
// motivates) while giving VERPART enough rows to clear the k threshold.
const DefaultMaxClusterSize = 30

// Options configures the disassociation anonymizer.
type Options struct {
	// K and M are the k^m-anonymity parameters (Definition 1): an adversary
	// knowing up to M terms of a record must face at least K candidate
	// records. Both must be at least 2 and 1 respectively.
	K int
	M int
	// MaxClusterSize bounds the horizontal partitions; 0 means
	// DefaultMaxClusterSize. It must exceed K for the guarantee to be
	// satisfiable with non-trivial record chunks.
	MaxClusterSize int
	// MaxShardRecords cuts the HORPART split tree into shards of at most
	// this many records (best effort — lopsided or unsplittable nodes may
	// exceed it) that are anonymized independently: MergeUndersized and
	// REFINE run within each shard, never across. 0 means one global shard,
	// the historical behavior. Values below MaxClusterSize are raised to it.
	// The streaming engine uses the same cut, which is why its output is
	// byte-identical to this path for equal options.
	MaxShardRecords int
	// DisableRefine skips the REFINE step (no joint clusters); used by the
	// ablation benchmarks.
	DisableRefine bool
	// Sensitive marks terms to protect against attribute disclosure
	// (Section 5): they are ignored during horizontal partitioning and always
	// placed in term chunks, so they associate with any record of a cluster
	// with probability at most 1/|P|.
	//lint:ignore densedomain boundary API: callers pass global terms; SensitiveBits densifies them once per run
	Sensitive map[dataset.Term]bool
	// SafeDisassociation runs the safe-disassociation repair (Awad et al.)
	// after REFINE: cover-problem breaches — cross-chunk associations an
	// adversary learns with probability above 1/K despite k^m-anonymity —
	// are removed by merging covering chunks where k^m allows it and
	// demoting heavy terms to term chunks otherwise. Deterministic for a
	// fixed Seed like every other pass, including under parallelism. The
	// JSON tag keeps persisted snapshot metadata byte-identical for
	// publications that do not opt in.
	SafeDisassociation bool `json:",omitempty"`
	// Parallel sets the number of workers for the per-cluster vertical
	// partitioning (Section 3 notes clusters anonymize independently).
	// 0 means GOMAXPROCS; 1 forces sequential operation.
	Parallel int
	// Seed drives subrecord shuffling. Results are deterministic for a fixed
	// seed, including under parallelism.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.MaxClusterSize == 0 {
		o.MaxClusterSize = DefaultMaxClusterSize
	}
	if o.Parallel == 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.MaxShardRecords > 0 && o.MaxShardRecords < o.MaxClusterSize {
		// A cut below the cluster-size threshold could land inside a node
		// HORPART would emit as a single cluster, splitting a cluster across
		// shards; clamping keeps every cut on a cluster boundary.
		o.MaxShardRecords = o.MaxClusterSize
	}
	return o
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.K < 2 {
		return fmt.Errorf("core: K = %d, need K ≥ 2", o.K)
	}
	if o.M < 1 {
		return fmt.Errorf("core: M = %d, need M ≥ 1", o.M)
	}
	if o.MaxClusterSize != 0 && o.MaxClusterSize <= o.K {
		return fmt.Errorf("core: MaxClusterSize = %d must exceed K = %d", o.MaxClusterSize, o.K)
	}
	if o.Parallel < 0 {
		return fmt.Errorf("core: Parallel = %d is negative", o.Parallel)
	}
	if o.MaxShardRecords < 0 {
		return fmt.Errorf("core: MaxShardRecords = %d is negative", o.MaxShardRecords)
	}
	return nil
}

// Anonymize runs the full disassociation pipeline — HORPART, VERPART per
// cluster, then REFINE — and returns the published dataset. The input is not
// modified. Records must be non-empty and normalized (dataset.Validate).
//
// It is AnonymizeWithState without the retained state: the records are cut
// into the shard plan of Options.MaxShardRecords, and each shard runs over
// its own dense term domain, where every global term becomes its rank among
// the shard's terms, so per-term tables in every stage are flat slices
// instead of maps. The remapping is monotone, which preserves every ordering
// the stages rely on, so after the published output is mapped back the
// result is byte-identical to a run over the original terms.
func Anonymize(d *dataset.Dataset, opts Options) (*Anonymized, error) {
	a, _, err := AnonymizeWithState(d, opts)
	return a, err
}

// AnonymizeShard runs the per-shard pipeline — HORPART (continuing past the
// shard's split path), MergeUndersized, VERPART, REFINE — over one shard of
// dense-id records and returns the published nodes, still in dense ids
// (RestoreClusters maps them back). opts must be validated and defaulted;
// sensitive is the dense sensitive-term table. Every PRNG stream is keyed by
// (Seed, shard index, position), so shards can run in any order or
// concurrently with identical output; shard 0 consumes exactly the streams
// the historical unsharded pipeline did.
func AnonymizeShard(sh Shard, nTerms int, sensitive []bool, opts Options) []*ClusterNode {
	anonymizeWork.Add(1)
	isSensitive := func(t dataset.Term) bool { return sensitive[t] }
	shardIdx := uint64(sh.Index)

	clusters := horPartN(sh.Records, sh.Records, nTerms, sh.Ignore, opts.MaxClusterSize, opts.Parallel)
	// Every cluster needs at least K records, or a term confined to its term
	// chunk would leave an adversary fewer than K candidates (Section 5's
	// reconstruction argument pads up to |P| records only).
	clusters = MergeUndersized(clusters, opts.K)

	leaves := make([]*leafState, len(clusters))
	workers := opts.Parallel
	if workers < 1 {
		workers = 1
	}
	scratches := make([]*indexScratch, workers)
	par.DoWorker(opts.Parallel, len(clusters), func(w, i int) {
		// Per-cluster PRNG: deterministic regardless of scheduling.
		rng := rand.New(rand.NewPCG(opts.Seed, shardIdx<<32|uint64(i)+1))
		if scratches[w] == nil {
			scratches[w] = newIndexScratch(nTerms)
		}
		records := clusters[i]
		cl, ix := verPartIndexed(records, opts.K, opts.M, isSensitive, rng, scratches[w])
		leaves[i] = newLeafState(records, cl, ix)
	})

	nodes := make([]*refNode, len(leaves))
	for i, l := range leaves {
		nodes[i] = &refNode{leaf: l}
	}
	if !opts.DisableRefine {
		rng := rand.New(rand.NewPCG(opts.Seed, 0xEF11E^(shardIdx<<32)))
		nodes = refineN(nodes, opts.K, opts.M, sensitive, rng, opts.Parallel, nTerms)
	}

	published := make([]*ClusterNode, len(nodes))
	for i, n := range nodes {
		published[i] = exportNode(n)
	}
	if opts.SafeDisassociation {
		// Repair runs per top-level node, sequentially, with a PRNG keyed by
		// (Seed, shard, node) — the same discipline as every other pass, so
		// full runs, streamed shards and delta republishes all repair
		// identically. exportNode shares each leaf's *Cluster with its
		// leafState, which still holds the original records the repair needs
		// for merges and re-disclosure.
		orig := make(map[*Cluster][]dataset.Record, len(leaves))
		for _, l := range leaves {
			orig[l.cluster] = l.records
		}
		lookup := func(cl *Cluster) []dataset.Record { return orig[cl] }
		for i, p := range published {
			rng := rand.New(rand.NewPCG(opts.Seed, 0x5AFED15^(shardIdx<<32|uint64(i))))
			repairNode(p, lookup, opts.K, opts.M, rng)
		}
	}
	return published
}

// ShardOptions prepares caller options for AnonymizeShard: validation plus
// the same defaulting Anonymize applies. The streaming engine uses it so both
// paths resolve identical effective options.
func ShardOptions(opts Options) (Options, error) {
	if err := opts.Validate(); err != nil {
		return Options{}, err
	}
	return opts.withDefaults(), nil
}

// SensitiveBits maps Options.Sensitive onto a dense domain: exclude marks
// every sensitive *key* (barred from splitting, as HorPartN's contract says),
// sensitive only the true-valued terms (kept out of record and shared
// chunks).
func SensitiveBits(opts Options, dom *dataset.DenseDomain) (exclude, sensitive []bool) {
	exclude = make([]bool, dom.Len())
	sensitive = make([]bool, dom.Len())
	//lint:deterministic order-independent scatter into dense boolean tables
	for t, v := range opts.Sensitive {
		if id, ok := dom.ID(t); ok {
			exclude[id] = true
			if v {
				sensitive[id] = true
			}
		}
	}
	return exclude, sensitive
}

// RestoreClusters rewrites published nodes from dense ids back to the global
// terms of dom, in place.
func RestoreClusters(nodes []*ClusterNode, dom *dataset.DenseDomain) {
	for _, n := range nodes {
		restoreNode(n, dom)
	}
}

// exportNode converts the working representation into the published form,
// dropping the original records.
func exportNode(n *refNode) *ClusterNode {
	if n.leaf != nil {
		return &ClusterNode{Simple: n.leaf.cluster}
	}
	out := &ClusterNode{SharedChunks: n.shared}
	for _, c := range n.children {
		out.Children = append(out.Children, exportNode(c))
	}
	return out
}

// restoreNode rewrites a published subtree from dense term ids back to the
// original global terms, in place. Every record in the tree is a fresh
// pipeline-owned allocation visited exactly once, and the id→term map is
// monotone, so records stay normalized.
func restoreNode(n *ClusterNode, dom *dataset.DenseDomain) {
	restoreChunks := func(chunks []Chunk) {
		for i := range chunks {
			dom.RestoreRecord(chunks[i].Domain)
			for _, sr := range chunks[i].Subrecords {
				dom.RestoreRecord(sr)
			}
		}
	}
	if n.IsLeaf() {
		dom.RestoreRecord(n.Simple.TermChunk)
		restoreChunks(n.Simple.RecordChunks)
		return
	}
	restoreChunks(n.SharedChunks)
	for _, c := range n.Children {
		restoreNode(c, dom)
	}
}
