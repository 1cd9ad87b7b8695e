// Package disasso is a Go implementation of anonymization by disassociation
// for sparse multidimensional (set-valued) data, reproducing Terrovitis,
// Liagouris, Mamoulis & Skiadopoulos: "Privacy Preservation by
// Disassociation", PVLDB 5(10), 2012.
//
// Disassociation protects against identity disclosure under the
// k^m-anonymity model: an adversary who knows up to M terms of a record
// (search queries, purchased items, clicked URLs) cannot narrow it down to
// fewer than K candidate records in any original dataset consistent with the
// published form. Unlike generalization or suppression, every original term
// survives publication; what is hidden is which infrequent combinations of
// terms co-occurred in a record.
//
// The published form partitions records into clusters, each cluster into
// k^m-anonymous record chunks plus a term chunk, and optionally joins
// clusters sharing refining terms into joint clusters with shared chunks:
//
//	d, _ := disasso.ReadIDs(file)
//	a, err := disasso.Anonymize(d, disasso.Options{K: 5, M: 2})
//	...
//	sample := disasso.Reconstruct(a, seed) // one plausible original dataset
//
// Analysts either work on the disassociated form directly (its itemset
// supports are certain lower bounds — see LowerBoundSupports) or mine any
// number of reconstructed datasets, averaging results across them.
package disasso

import (
	"fmt"
	"io"
	"math/rand/v2"

	"disasso/internal/anonymity"
	"disasso/internal/attack"
	"disasso/internal/breach"
	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/load"
	"disasso/internal/metrics"
	"disasso/internal/query"
	"disasso/internal/quest"
	"disasso/internal/reconstruct"
	"disasso/internal/server"
	"disasso/internal/shard"
)

// Core data model, re-exported from the internal packages so that library
// users interact with one import path.
type (
	// Term identifies a term of the domain (a query, product, URL...).
	Term = dataset.Term
	// Record is a normalized set of terms.
	Record = dataset.Record
	// Dataset is a bag of records.
	Dataset = dataset.Dataset
	// Dictionary maps external term strings to Terms and back.
	Dictionary = dataset.Dictionary
	// Options configures Anonymize; K and M are the k^m-anonymity
	// parameters.
	Options = core.Options
	// Anonymized is the published disassociated dataset.
	Anonymized = core.Anonymized
	// Cluster is one simple cluster of the published form.
	Cluster = core.Cluster
	// Chunk is a record chunk or shared chunk.
	Chunk = core.Chunk
	// ClusterNode is a node of the published cluster forest (leaf or joint).
	ClusterNode = core.ClusterNode
)

// NewRecord builds a normalized record from the given terms.
func NewRecord(terms ...Term) Record { return dataset.NewRecord(terms...) }

// NewDataset wraps records (normalized in place) into a dataset.
func NewDataset(records ...Record) *Dataset {
	d := dataset.New(len(records))
	for _, r := range records {
		d.Add(r)
	}
	return d
}

// NewDictionary returns an empty term dictionary.
func NewDictionary() *Dictionary { return dataset.NewDictionary() }

// ReadIDs parses a dataset of integer term IDs, one record per line.
func ReadIDs(r io.Reader) (*Dataset, error) { return dataset.ReadIDs(r) }

// WriteIDs writes a dataset as integer term IDs, one record per line.
func WriteIDs(w io.Writer, d *Dataset) error { return dataset.WriteIDs(w, d) }

// ReadNames parses a dataset of whitespace-separated term names, interning
// them in dict.
func ReadNames(r io.Reader, dict *Dictionary) (*Dataset, error) {
	return dataset.ReadNames(r, dict)
}

// WriteNames writes a dataset through the dictionary.
func WriteNames(w io.Writer, d *Dataset, dict *Dictionary) error {
	return dataset.WriteNames(w, d, dict)
}

// Anonymize runs the disassociation pipeline (HORPART, VERPART, REFINE) and
// returns the published k^m-anonymous dataset. The input is unchanged.
func Anonymize(d *Dataset, opts Options) (*Anonymized, error) {
	return core.Anonymize(d, opts)
}

// Incremental delta republish: a publish that retains its shard-plan state
// can absorb batches of appended and removed records at a cost proportional
// to the churn, not the dataset — only the shards the delta touches are
// re-anonymized, and the published bytes are exactly what a from-scratch
// Anonymize over the updated records would produce.
type (
	// RepublishState is the retained state of AnonymizeWithState. Immutable:
	// ApplyDelta returns a successor state and leaves the receiver valid.
	RepublishState = core.RepubState
	// RepublishDelta is one batch of removals and appends.
	RepublishDelta = core.Delta
	// RepublishStats reports what a delta republish recomputed.
	RepublishStats = core.RepublishStats
)

// ErrRecordNotFound reports a delta removal of a record not present in the
// dataset; the delta is rejected as a whole.
var ErrRecordNotFound = core.ErrRecordNotFound

// AnonymizeWithState is Anonymize plus retained delta-republish state: the
// publication is byte-identical to Anonymize(d, opts), and the returned state
// accepts RepublishState.Apply calls for incremental republishes. Publish
// with Options.MaxShardRecords > 0 — a single global shard makes every delta
// a full republish.
func AnonymizeWithState(d *Dataset, opts Options) (*Anonymized, *RepublishState, error) {
	return core.AnonymizeWithState(d, opts)
}

// StreamOptions configures AnonymizeStream: the core anonymization
// parameters plus the memory budget, spill directory and output format of
// the sharded streaming engine. With Core.MaxShardRecords zero the engine
// derives the shard cut from the memory budget and the input alone, so the
// published bytes do not depend on Core.Parallel either way; passing the
// reported StreamStats.ShardRecords back as Core.MaxShardRecords reproduces
// them in memory.
type StreamOptions = shard.Options

// StreamStats reports what a streaming run did: records and terms seen,
// shards processed, clusters published, the shard cut used and how much data
// spilled to temp files.
type StreamStats = shard.Stats

// AnonymizeStream anonymizes a dataset too large to hold in memory: records
// stream in from r (the text format ReadIDs parses), are cut into shards
// along HORPART's own split boundaries, anonymized shard by shard within the
// configured memory budget (spilling to temp files as needed), and published
// incrementally to w. The output is byte-identical to Anonymize +
// WriteBinary (or WriteJSON) on the same records with the same effective
// options, including the derived Options.MaxShardRecords reported in
// StreamStats.ShardRecords.
func AnonymizeStream(r io.Reader, w io.Writer, opts StreamOptions) (StreamStats, error) {
	return shard.Anonymize(r, w, opts)
}

// Verify independently re-checks every privacy condition of the published
// dataset (chunk k^m-anonymity, the Lemma 2 record-count condition, Property
// 1 on shared chunks, structural invariants) and returns nil when all hold.
func Verify(a *Anonymized) error {
	return anonymity.Verify(a).Err()
}

// VerifyAgainstOriginal additionally cross-checks record counts and domain
// coverage against the original dataset.
func VerifyAgainstOriginal(a *Anonymized, d *Dataset) error {
	return anonymity.VerifyAgainstOriginal(a, d).Err()
}

// Reconstruct samples one plausible original dataset D' ∈ I(D_A).
func Reconstruct(a *Anonymized, seed uint64) *Dataset {
	return reconstruct.Sample(a, rand.New(rand.NewPCG(seed, 0x5EED)))
}

// ReconstructMany samples n independent reconstructions.
func ReconstructMany(a *Anonymized, n int, seed uint64) []*Dataset {
	return reconstruct.SampleMany(a, n, rand.New(rand.NewPCG(seed, 0x5EED)))
}

// TopKDeviation computes the tKd information-loss metric between the
// original records and published (e.g. reconstructed) records: the fraction
// of the original's top-K frequent itemsets (of size up to maxSize) missing
// from the published top-K.
func TopKDeviation(original, published *Dataset, k, maxSize int) float64 {
	return metrics.TopKDeviation(original.Records, published.Records, k, maxSize)
}

// RelativeError computes the re metric: the mean relative error of pair
// supports over the given terms, in [0, 2].
func RelativeError(original, published *Dataset, terms []Term) float64 {
	return metrics.RelativeError(original.Records, published.Records, terms)
}

// RangeTerms returns the dataset's terms ranked [lo, hi) by descending
// support — e.g. RangeTerms(d, 200, 220) for the paper's re convention.
func RangeTerms(d *Dataset, lo, hi int) []Term {
	return metrics.RangeTerms(d, lo, hi)
}

// TermsLost computes the tlost metric: the fraction of terms frequent in the
// original (support ≥ k) that the anonymization left only in term chunks.
func TermsLost(d *Dataset, a *Anonymized, k int) float64 {
	return metrics.TermsLost(d, a, k)
}

// Summary describes the shape of a published dataset (clusters, chunks,
// subrecords, term-chunk load) — what a publisher inspects before release.
type Summary = core.Summary

// Stats summarizes the published form.
func Stats(a *Anonymized) Summary { return a.Stats() }

// SupportEstimate carries the three support estimators computable directly
// on the published form (Section 6): certain lower bound, reconstruction
// upper bound, and the expected value under the probabilistic chunk model.
type SupportEstimate = query.Estimate

// EstimateSupport estimates an itemset's support from the published form
// alone, without sampling reconstructions, by a linear scan over the
// clusters. For repeated queries over one publication, build a SupportIndex
// instead — same estimates, sublinear per query.
func EstimateSupport(a *Anonymized, itemset Record) SupportEstimate {
	return query.Support(a, itemset)
}

// SupportIndex answers support queries through an inverted term index over
// the published form: each query visits only the clusters containing every
// term of the itemset, and singleton estimates are precomputed. Estimates
// are identical to EstimateSupport. A SupportIndex is immutable and safe
// for concurrent use.
type SupportIndex = query.Estimator

// NewSupportIndex builds the inverted index over a published dataset. The
// publication must not be mutated afterwards.
func NewSupportIndex(a *Anonymized) *SupportIndex {
	return query.NewEstimator(a)
}

// HTTP query service (cmd/disassod): request and response wire types,
// re-exported so API clients can marshal against the same definitions the
// server uses.
type (
	// ServerOptions configures NewServer.
	ServerOptions = server.Options
	// ServerDatasetInfo describes one registered dataset.
	ServerDatasetInfo = server.DatasetInfo
	// ServerListEntry is one dataset in the listing: its info plus the cold
	// (recovered-from-disk) and mapped serving-tier facts.
	ServerListEntry = server.ListEntry
	// ServerListResponse answers GET /v1/datasets.
	ServerListResponse = server.ListResponse
	// ServerStatsResponse answers GET /v1/datasets/{name}/stats.
	ServerStatsResponse = server.StatsResponse
	// ServerSupportRequest is the body of POST .../support.
	ServerSupportRequest = server.SupportRequest
	// ServerSupportResponse answers a support request.
	ServerSupportResponse = server.SupportResponse
	// ServerItemsetEstimate is one itemset's served support estimate.
	ServerItemsetEstimate = server.ItemsetEstimate
	// ServerReconstructRequest is the body of POST .../reconstruct.
	ServerReconstructRequest = server.ReconstructRequest
	// ServerReconstructResponse carries sampled reconstructions.
	ServerReconstructResponse = server.ReconstructResponse
	// ServerMetricsResponse answers GET .../metrics.
	ServerMetricsResponse = server.MetricsResponse
	// ServerDeltaResponse answers POST .../append and .../remove.
	ServerDeltaResponse = server.DeltaResponse
	// ServerErrorResponse is the body of every non-2xx answer.
	ServerErrorResponse = server.ErrorResponse
	// Server is the HTTP query service itself. It implements http.Handler;
	// beyond serving it exposes Recover, which repopulates the registry from
	// ServerOptions.DataDir snapshot files in O(files) — no re-anonymization,
	// no re-indexing.
	Server = server.Server
	// ServerRecoveryReport says what a Recover scan loaded and skipped.
	ServerRecoveryReport = server.RecoveryReport
	// ServerSkippedFile is one file Recover passed over, with the reason.
	ServerSkippedFile = server.SkippedFile
)

// NewServer returns the HTTP query service serving the disassod API:
// dataset publishing (stream=1 derives the shard cut from a memory budget),
// append/remove deltas, itemset support estimates
// over the inverted index (memoized by a bounded per-snapshot support cache;
// -tags support_nocache builds it without), reconstruction sampling, utility
// metrics and stats. With ServerOptions.DataDir set, publications persist as
// snapshot files and (*Server).Recover restores them after a restart. The
// server is safe for concurrent use.
func NewServer(opts ServerOptions) *Server {
	return server.New(opts)
}

// Workload modeling (cmd/loadbench): seeded deterministic query streams
// drawn from a published snapshot's own term domain — Zipf-skewed singleton
// supports, correlated itemsets from co-occurring cluster terms,
// reconstruction calls, publish/delete churn and append/remove delta
// batches — described by a small text mix spec. The same machinery drives
// load benchmarks and the correctness-under-concurrency soak tests.
type (
	// WorkloadSpec is a parsed workload mix (see ParseWorkloadSpec).
	WorkloadSpec = load.Spec
	// WorkloadEntry is one weighted mix entry.
	WorkloadEntry = load.Entry
	// WorkloadModel compiles a spec against one publication; immutable and
	// safe for concurrent use.
	WorkloadModel = load.Model
	// WorkloadStream is one client's deterministic op stream.
	WorkloadStream = load.Stream
	// WorkloadOp is one generated operation.
	WorkloadOp = load.Op
	// WorkloadOpKind discriminates WorkloadOp operations.
	WorkloadOpKind = load.OpKind
	// LatencyHistogram is the bounded-memory log-linear latency histogram
	// loadbench reports quantiles from (deterministic: the same samples
	// always yield the same p50/p95/p99).
	LatencyHistogram = load.Histogram
)

// Workload op kinds a WorkloadStream emits.
const (
	WorkloadSupport     = load.OpSupport
	WorkloadReconstruct = load.OpReconstruct
	WorkloadPublish     = load.OpPublish
	WorkloadDelete      = load.OpDelete
	WorkloadAppend      = load.OpAppend
	WorkloadRemove      = load.OpRemove
)

// ParseWorkloadSpec parses the workload mix text format: one entry per
// line or ';'-separated, `kind key=value ...` with '#' comments, kinds
// singleton/itemset/reconstruct/publish/delete/append/remove. See
// load.ParseSpec for the per-kind parameters.
func ParseWorkloadSpec(text string) (*WorkloadSpec, error) {
	return load.ParseSpec(text)
}

// DefaultWorkloadSpec returns the built-in mixed read-heavy workload.
func DefaultWorkloadSpec() *WorkloadSpec { return load.DefaultSpec() }

// NewWorkloadModel compiles a workload spec against a publication. Streams
// handed out by the model are pure functions of (publication, spec, seed,
// client id) — same inputs, same ops.
func NewWorkloadModel(a *Anonymized, spec *WorkloadSpec, seed uint64) (*WorkloadModel, error) {
	return load.NewModel(a, spec, seed)
}

// Cover-problem breach auditing: k^m-anonymity bounds how few candidate
// records an adversary can reach, but combinations of chunks covering a
// cluster can still let term associations be inferred with probability above
// 1/k (the cover problem; Terrovitis et al. Section 5.2). AuditBreaches
// detects such breaches on the published form; Options.SafeDisassociation
// repairs them at publish time by merging or demoting the offending chunks.
type (
	// BreachReport is a full cover-problem audit of a publication.
	BreachReport = breach.Report
	// BreachFinding is one itemset whose association probability exceeds 1/k.
	BreachFinding = breach.Finding
	// ServerBreachResponse answers GET /v1/datasets/{name}/breaches.
	ServerBreachResponse = server.BreachResponse
)

// AuditBreaches runs the cover-problem breach detector over every published
// cluster and returns the findings, worst first. A publication produced with
// Options.SafeDisassociation audits clean.
func AuditBreaches(a *Anonymized) *BreachReport { return breach.Audit(a) }

// Candidates returns how many records an adversary holding the given
// background knowledge must consider — the quantity the k^m guarantee bounds
// below by K (or zero, when the combination never existed).
func Candidates(a *Anonymized, knowledge Record) int {
	return attack.Candidates(a, knowledge)
}

// AuditGuarantee sweeps adversary knowledge drawn from the original records
// (random subsets of up to m terms, trials samples) plus every single term,
// and returns an error describing the first k^m violation found, if any.
func AuditGuarantee(a *Anonymized, d *Dataset, m, k, trials int, seed uint64) error {
	if v := attack.AuditTerms(a, k); len(v) > 0 {
		return fmt.Errorf("disasso: term %v has only %d candidates (k=%d)", v[0].Knowledge, v[0].Candidates, k)
	}
	rng := rand.New(rand.NewPCG(seed, 0xA0D17))
	if v := attack.AuditRecords(a, d, m, k, trials, rng); len(v) > 0 {
		return fmt.Errorf("disasso: knowledge %v has only %d candidates (k=%d)", v[0].Knowledge, v[0].Candidates, k)
	}
	return nil
}

// WriteJSON serializes a published dataset as indented JSON — the archival
// wire format of cmd/disasso.
func WriteJSON(w io.Writer, a *Anonymized) error { return core.WriteJSON(w, a) }

// ReadJSON parses a dataset written by WriteJSON.
func ReadJSON(r io.Reader) (*Anonymized, error) { return core.ReadJSON(r) }

// WriteBinary serializes a published dataset in the compact delta-encoded
// binary format (roughly 8× smaller than JSON on large publications).
func WriteBinary(w io.Writer, a *Anonymized) error { return core.WriteBinary(w, a) }

// ReadBinary parses a dataset written by WriteBinary. It reads all of r into
// memory before it decodes anything.
func ReadBinary(r io.Reader) (*Anonymized, error) { return core.ReadBinary(r) }

// QuestConfig parameterizes the bundled IBM Quest market-basket generator.
type QuestConfig = quest.Config

// DefaultQuestConfig returns the paper's synthetic defaults (1M records, 5k
// terms, average record length 10).
func DefaultQuestConfig() QuestConfig { return quest.DefaultConfig() }

// GenerateQuest produces a synthetic transactional dataset with the classic
// Agrawal–Srikant procedure; same seed, same dataset.
func GenerateQuest(cfg QuestConfig) (*Dataset, error) {
	g, err := quest.New(cfg)
	if err != nil {
		return nil, err
	}
	return g.Generate(), nil
}
