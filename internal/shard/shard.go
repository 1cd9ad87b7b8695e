// Package shard is the sharded streaming anonymization engine: it runs the
// disassociation pipeline over datasets that do not fit in memory, producing
// output byte-identical to the in-memory core.Anonymize path at equal
// options.
//
// The engine works in bounded memory by exploiting the paper's structural
// property (Section 4): HORPART's first splits partition the records by their
// most frequent term, and the resulting subtrees are anonymized without ever
// looking at each other's records. The stream is cut into shards along those
// split boundaries — the identical cut core.Anonymize applies for the same
// Options.MaxShardRecords — so each shard can be loaded, anonymized by the
// unmodified core pipeline, published and discarded independently:
//
//  1. a first counting pass streams the records, accumulating per-term
//     supports (never materializing the dataset) and spilling records to a
//     temp file once the memory budget is reached;
//  2. the spilled records are routed into shard files by core.Plan, the
//     shard-plan recursion the in-memory path runs too, which applies
//     HORPART's most-frequent-term rule until each shard is at most
//     MaxShardRecords; here each split streams a node's spill file into two;
//  3. shards run through the core pipeline in parallel (par.DoWorker), each
//     worker holding one shard in memory, staging published clusters to
//     per-shard body files via the chunked writers;
//  4. the publication is assembled by streaming the staged bodies, in shard
//     order, behind the WriteBinary (or WriteJSON) header.
//
// When the input fits the budget outright nothing spills and the engine
// degenerates to core.Anonymize plus a monolithic write.
package shard

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/par"
)

// DefaultMemoryBudget bounds the engine's working set when Options leaves
// MemoryBudget zero.
const DefaultMemoryBudget = 256 << 20

// pipelineExpansion estimates how many bytes of working state the core
// pipeline builds per byte of resident record data (term indexes, chunk
// projections, refinement aggregates). It sizes shards so that a worker
// processing one shard stays within its slice of the memory budget; the
// bounded-memory test pins the resulting peak-heap envelope.
const pipelineExpansion = 6

// Options configures the streaming engine.
type Options struct {
	// Core carries the anonymization parameters. MaxShardRecords, when set,
	// fixes the shard cut explicitly; when zero the engine derives it from
	// MemoryBudget after the counting pass (and records the choice in
	// Stats.ShardRecords). The derived cut is one worker's share of the
	// budget, so unlike every other use of Parallel it changes the
	// published bytes; passing Stats.ShardRecords back as MaxShardRecords
	// reproduces them at any worker count. All other fields mean exactly
	// what they mean for core.Anonymize.
	Core core.Options
	// MemoryBudget is the target working-set bound in bytes; 0 means
	// DefaultMemoryBudget. It is best effort: a shard that cannot be split
	// further (no usable term, or a lopsided split that would strand fewer
	// than K records) is processed whole.
	MemoryBudget int64
	// TempDir hosts the spill files; "" means the system temp directory.
	TempDir string
	// JSON selects the indented JSON publication format instead of the
	// compact binary one.
	JSON bool
}

// Stats reports what a streaming run did.
type Stats struct {
	Records int // records read
	Terms   int // distinct terms (|T|)
	// Shards counts the spill-path processing units; it is 1 whenever the
	// input fit the budget (the in-memory path then runs, which still cuts
	// shards internally per the resolved ShardRecords).
	Shards       int
	Clusters     int   // top-level clusters published
	ShardRecords int   // the shard cut used (derived or explicit)
	Spilled      bool  // whether the input exceeded the budget
	SpillBytes   int64 // bytes staged in temp files (records + bodies)
}

// Anonymize streams records from r (text format, one record of integer term
// IDs per line), anonymizes them and writes the publication to w. The output
// is byte-identical to running core.Anonymize on the same records with the
// same effective options (including the derived MaxShardRecords) and writing
// the result with WriteBinary or WriteJSON.
func Anonymize(r io.Reader, w io.Writer, opts Options) (Stats, error) {
	var st Stats
	copts, err := core.ShardOptions(opts.Core)
	if err != nil {
		return st, err
	}
	budget := opts.MemoryBudget
	if budget <= 0 {
		budget = DefaultMemoryBudget
	}

	e := &engine{opts: opts, copts: copts, budget: budget}
	defer e.cleanup()
	if err := e.countAndSpill(r); err != nil {
		return st, err
	}
	st.Records = e.numRecords
	st.Spilled = e.spill != nil

	// The dense domain and its support counts drop straight out of the
	// counting pass.
	terms := make([]dataset.Term, 0, len(e.supports))
	for t := range e.supports {
		terms = append(terms, t)
	}
	slices.Sort(terms)
	counts := make([]int32, len(terms))
	for i, t := range terms {
		counts[i] = e.supports[t]
	}
	e.supports = nil
	e.dom = dataset.NewDenseDomainFromTerms(terms)
	st.Terms = e.dom.Len()

	e.resolveShardSize()
	copts = e.copts
	st.ShardRecords = copts.MaxShardRecords

	if e.spill == nil {
		// Everything fits: the in-memory path IS the specification.
		d := dataset.FromRecords(e.buffered)
		a, err := core.Anonymize(d, copts)
		if err != nil {
			return st, err
		}
		st.Shards = 1
		st.Clusters = len(a.Clusters)
		if opts.JSON {
			return st, core.WriteJSON(w, a)
		}
		return st, core.WriteBinary(w, a)
	}

	// Supports held across with-subtrees while planning are capped at a
	// quarter of the budget; past it the without side recounts its file.
	exclude, sensitive := core.SensitiveBits(copts, e.dom)
	root := spillFile{e: e, path: e.spill.f.Name(), n: e.numRecords}
	leaves, err := core.Plan(root, counts, terms, exclude, copts, e.budget/4)
	if err != nil {
		return st, err
	}
	for _, l := range leaves {
		e.shards = append(e.shards, fileShard{spillFile: l.Source, pathTerms: l.Path})
	}
	st.Shards = len(e.shards)

	if err := e.processShards(exclude, sensitive); err != nil {
		return st, err
	}
	for i := range e.shards {
		st.Clusters += e.shards[i].clusters
	}
	st.SpillBytes = e.spillBytes.Load()
	return st, e.assemble(w)
}

// engine carries one streaming run.
type engine struct {
	opts   Options
	copts  core.Options
	budget int64

	dir        string // temp dir, created lazily
	tmpSeq     int
	numRecords int
	totalTerms int64

	supports map[dataset.Term]int32
	dom      *dataset.DenseDomain

	// Pass-1 record staging: in memory until the budget forces a spill.
	buffered      []dataset.Record
	bufferedBytes int64
	spill         *spillWriter

	shards     []fileShard
	spillBytes atomic.Int64
}

// countingWriter tracks the bytes written through it, feeding
// Stats.SpillBytes with real file sizes.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// fileShard is one planned shard: its spill file and the split-path terms
// its HORPART continuation must ignore.
type fileShard struct {
	spillFile
	pathTerms []int32

	bodyPath string // staged published clusters
	clusters int
	err      error
}

// spillWriter wraps a temp file behind the binary record codec.
type spillWriter struct {
	f  *os.File
	cw *countingWriter
	rw *dataset.BinaryRecordWriter
}

func (e *engine) ensureDir() error {
	if e.dir != "" {
		return nil
	}
	dir, err := os.MkdirTemp(e.opts.TempDir, "disasso-shard-")
	if err != nil {
		return fmt.Errorf("shard: temp dir: %w", err)
	}
	e.dir = dir
	return nil
}

func (e *engine) tmpPath(kind string) string {
	e.tmpSeq++
	return filepath.Join(e.dir, fmt.Sprintf("%s-%06d.rec", kind, e.tmpSeq))
}

func (e *engine) cleanup() {
	if e.spill != nil && e.spill.f != nil {
		// Error-path cleanup: the run already failed (or the spill was
		// fully read back); the close result cannot change the outcome.
		_ = e.spill.f.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// recordFootprint approximates the resident bytes of one parsed record: the
// backing array plus slice and bookkeeping overhead.
func recordFootprint(terms int) int64 { return 40 + 4*int64(terms) }

// countAndSpill is pass 1: stream the input, accumulate supports, and keep
// records in memory until the budget's staging half is exhausted, spilling
// them (and the rest of the stream) to a temp file beyond that.
func (e *engine) countAndSpill(r io.Reader) error {
	e.supports = make(map[dataset.Term]int32)
	sr := dataset.NewStreamReader(r)
	stageBudget := e.budget / 2
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if len(rec) == 0 {
			continue
		}
		e.numRecords++
		e.totalTerms += int64(len(rec))
		for _, t := range rec {
			e.supports[t]++
		}
		if e.spill == nil {
			e.buffered = append(e.buffered, rec)
			e.bufferedBytes += recordFootprint(len(rec))
			if e.bufferedBytes > stageBudget {
				if err := e.startSpill(); err != nil {
					return err
				}
			}
			continue
		}
		if err := e.spill.rw.Write(rec); err != nil {
			return fmt.Errorf("shard: spill: %w", err)
		}
	}
	if e.spill != nil {
		if err := e.spill.rw.Flush(); err != nil {
			return fmt.Errorf("shard: spill flush: %w", err)
		}
		if err := e.spill.f.Close(); err != nil {
			return err
		}
		e.spillBytes.Add(e.spill.cw.n)
	}
	return nil
}

// startSpill drains the in-memory staging buffer to the root spill file and
// switches pass 1 into spill mode.
func (e *engine) startSpill() error {
	if err := e.ensureDir(); err != nil {
		return err
	}
	path := filepath.Join(e.dir, "root.rec")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("shard: spill: %w", err)
	}
	cw := &countingWriter{w: f}
	e.spill = &spillWriter{f: f, cw: cw, rw: dataset.NewBinaryRecordWriter(cw)}
	for _, rec := range e.buffered {
		if err := e.spill.rw.Write(rec); err != nil {
			return fmt.Errorf("shard: spill: %w", err)
		}
	}
	e.buffered = nil
	e.bufferedBytes = 0
	return nil
}

// resolveShardSize fixes the shard cut: an explicit Core.MaxShardRecords
// wins; otherwise the cut targets one worker's slice of the memory budget,
// assuming pipelineExpansion bytes of working state per resident record
// byte. The choice is written back into copts so the core path sees the
// exact same effective options.
func (e *engine) resolveShardSize() {
	if e.copts.MaxShardRecords > 0 {
		return
	}
	workers := e.copts.Parallel
	if workers < 1 {
		workers = 1
	}
	avgLen := float64(10)
	if e.numRecords > 0 {
		avgLen = float64(e.totalTerms) / float64(e.numRecords)
	}
	perRecord := pipelineExpansion * float64(recordFootprint(int(math.Ceil(avgLen))))
	s := int(float64(e.budget) / perRecord / float64(workers))
	if s < e.copts.MaxClusterSize {
		s = e.copts.MaxClusterSize
	}
	e.copts.MaxShardRecords = s
}

// processShards runs the core pipeline over every planned shard on the
// worker pool, staging each shard's published clusters to a body file.
func (e *engine) processShards(exclude, sensitive []bool) error {
	workers := e.copts.Parallel
	var mu sync.Mutex // guards tmpPath's sequence
	par.DoWorker(workers, len(e.shards), func(_, i int) {
		sh := &e.shards[i]
		records, err := e.loadShard(sh)
		if err != nil {
			sh.err = err
			return
		}
		ignore := make([]bool, e.dom.Len())
		copy(ignore, exclude)
		for _, t := range sh.pathTerms {
			ignore[t] = true
		}
		nodes := core.AnonymizeShard(core.Shard{Records: records, Ignore: ignore, Index: i}, e.dom.Len(), sensitive, e.copts)
		core.RestoreClusters(nodes, e.dom)

		mu.Lock()
		sh.bodyPath = e.tmpPath("body")
		mu.Unlock()
		sh.clusters = len(nodes)
		sh.err = e.stageBody(sh.bodyPath, nodes)
		os.Remove(sh.path)
	})
	for i := range e.shards {
		if e.shards[i].err != nil {
			return e.shards[i].err
		}
	}
	return nil
}

// loadShard materializes one shard file as dense records.
func (e *engine) loadShard(sh *fileShard) ([]dataset.Record, error) {
	f, err := os.Open(sh.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rr := dataset.NewBinaryRecordReader(f)
	records := make([]dataset.Record, 0, sh.n)
	for {
		rec, err := rr.Next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("shard: load %s: %w", filepath.Base(sh.path), err)
		}
		records = append(records, rec)
	}
	if len(records) != sh.n {
		return nil, fmt.Errorf("shard: %s holds %d records, planned %d", filepath.Base(sh.path), len(records), sh.n)
	}
	if !sh.dense {
		records = e.dom.RemapAll(records)
	}
	return records, nil
}

// stageBody writes one shard's published clusters to a body file in the
// output format's per-cluster framing. JSON bodies carry a leading ",\n    "
// separator before every cluster; assembly strips the very first comma.
func (e *engine) stageBody(path string, nodes []*core.ClusterNode) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if e.opts.JSON {
		if err := writeJSONBody(f, nodes); err != nil {
			return err
		}
	} else {
		cw := core.NewBinaryClusterWriter(f)
		for _, n := range nodes {
			if err := cw.Append(n); err != nil {
				return err
			}
		}
		if err := cw.Flush(); err != nil {
			return err
		}
	}
	if fi, err := f.Stat(); err == nil {
		e.spillBytes.Add(fi.Size())
	}
	return f.Close()
}

// assemble streams the staged bodies behind the format header, in shard
// order, producing the exact WriteBinary/WriteJSON bytes.
func (e *engine) assemble(w io.Writer) error {
	if e.opts.JSON {
		return e.assembleJSON(w)
	}
	total := 0
	for i := range e.shards {
		total += e.shards[i].clusters
	}
	if err := core.WriteBinaryHeader(w, e.copts.K, e.copts.M, total); err != nil {
		return err
	}
	for i := range e.shards {
		if err := copyFile(w, e.shards[i].bodyPath); err != nil {
			return err
		}
		os.Remove(e.shards[i].bodyPath)
	}
	return nil
}

func copyFile(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}
