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
//     supports (never materializing the dataset) and staging records in
//     half the memory budget, past which they all spill to one root file;
//  2. core.Plan, the shard-plan recursion the in-memory path runs too,
//     applies HORPART's most-frequent-term rule until each shard is at most
//     MaxShardRecords. A node whose records fit, as dense ids, in the half
//     of the budget pass 1 staged in (the planning share) is loaded once into
//     an in-memory slab and its whole subtree is split there; only nodes that
//     do not fit stream their file into two per split. Leaves arrive in
//     preorder and are appended to one shard-input file;
//  3. shards run through the core pipeline in parallel (par.DoWorker), each
//     worker holding one shard in memory, read from its range of the
//     shard-input file, and appending its published clusters to the
//     worker's own body file via the chunked writers;
//  4. the publication is assembled by copying the staged body ranges, in
//     shard order, behind the WriteBinary (or WriteJSON) header.
//
// When the input fits the budget outright nothing spills and the engine
// degenerates to core.Anonymize plus a monolithic write.
package shard

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
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
// projections, refinement aggregates). It sizes shards so that each shard
// in process stays within its share of the memory budget; the bounded-memory
// test pins the resulting peak-heap envelope.
const pipelineExpansion = 6

// shardsInFlight is how many shard working sets the engine sizes the budget
// for: the derived cut is that share of it, and under a derived cut at most
// that many shards are processed at once. It is fixed, so the derived cut,
// and with it the published bytes, do not depend on the worker count.
const shardsInFlight = 2

// Options configures the streaming engine.
type Options struct {
	// Core carries the anonymization parameters. MaxShardRecords, when set,
	// fixes the shard cut explicitly; when zero the engine derives it from
	// MemoryBudget after the counting pass (and records the choice in
	// Stats.ShardRecords). The derived cut depends on the budget and the
	// input, not on Parallel, so the published bytes are the same at any
	// worker count; passing Stats.ShardRecords back as MaxShardRecords
	// reproduces them in memory. Parallel workers process the shards, at
	// most shardsInFlight at once under a derived cut, and bound the workers
	// inside each. All other fields mean exactly what they mean for
	// core.Anonymize.
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
	Records      int   // records read
	Terms        int   // distinct terms (|T|)
	Shards       int   // shards of the plan
	Clusters     int   // top-level clusters published
	ShardRecords int   // the shard cut used (explicit, or derived from budget and input)
	Spilled      bool  // whether the input exceeded the budget
	SpillBytes   int64 // bytes staged in temp files (records + bodies)
}

// Anonymize streams records from r (text format, one record of integer term
// IDs per line), anonymizes them and writes the publication to w. The output
// is byte-identical to running core.Anonymize on the same records with the
// same effective options (including the derived MaxShardRecords) and writing
// the result with WriteBinary or WriteJSON.
func Anonymize(r io.Reader, w io.Writer, opts Options) (Stats, error) {
	e := &engine{opts: opts}
	return e.run(r, w)
}

// engine carries one streaming run.
type engine struct {
	opts   Options
	copts  core.Options
	budget int64
	// planShare bounds a resident plan node: its slab plus 8 bytes a record
	// for the record offsets and the partition scratch.
	planShare int64

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

	input      *stagingFile // every shard's dense records, in plan order
	shards     []fileShard
	bodies     []*os.File // one per worker: its shards' published clusters
	spillBytes atomic.Int64

	// What the run did, for the package tests: temp files created, and
	// splits made in memory and through files.
	files, slabSplits, fileSplits int
}

// run is Anonymize on a fresh engine.
func (e *engine) run(r io.Reader, w io.Writer) (Stats, error) {
	var st Stats
	copts, err := core.ShardOptions(e.opts.Core)
	if err != nil {
		return st, err
	}
	e.copts = copts
	e.budget = e.opts.MemoryBudget
	if e.budget <= 0 {
		e.budget = DefaultMemoryBudget
	}
	// Offsets into a slab are int32.
	e.planShare = min(e.budget/2, math.MaxInt32)

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

	e.copts.MaxShardRecords = Cut(e.copts, e.budget, e.numRecords, e.totalTerms)
	copts = e.copts
	st.ShardRecords = copts.MaxShardRecords

	if e.spill == nil {
		// Everything fits: the in-memory path IS the specification.
		d := dataset.FromRecords(e.buffered)
		a, rs, err := core.AnonymizeWithState(d, copts)
		if err != nil {
			return st, err
		}
		st.Shards = rs.NumShards()
		st.Clusters = len(a.Clusters)
		if e.opts.JSON {
			return st, core.WriteJSON(w, a)
		}
		return st, core.WriteBinary(w, a)
	}

	f, err := e.create("input")
	if err != nil {
		return st, err
	}
	e.input = &stagingFile{f: f, bw: bufio.NewWriter(f)}
	// Supports held across with-subtrees while planning are capped at a
	// quarter of the budget; past it the without side recounts its node.
	root := &source{e: e, n: e.numRecords, path: e.spill.f.Name(), size: e.spill.cw.n}
	if err := core.Plan(root, counts, terms, copts, e.budget/4, e.emit); err != nil {
		return st, err
	}
	if err := e.input.bw.Flush(); err != nil {
		return st, err
	}
	e.spillBytes.Add(e.input.n)
	st.Shards = len(e.shards)

	if err := e.processShards(); err != nil {
		return st, err
	}
	for i := range e.shards {
		st.Clusters += e.shards[i].clusters
	}
	st.SpillBytes = e.spillBytes.Load()
	return st, e.assemble(w)
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

// stagingFile is a temp file written sequentially through a buffer; n counts
// the bytes written, so it is also the offset of the next write.
type stagingFile struct {
	f  *os.File
	bw *bufio.Writer
	n  int64
}

func (sf *stagingFile) Write(p []byte) (int, error) {
	n, err := sf.bw.Write(p)
	sf.n += int64(n)
	return n, err
}

// fileShard is one planned shard: its range of the shard-input file, the
// split-path terms its HORPART continuation must ignore, and where its
// published clusters are staged.
type fileShard struct {
	off, size int64
	n         int
	pathTerms []int32

	body             int // the worker whose body file holds the clusters
	bodyOff, bodyLen int64
	clusters         int
	err              error
}

// spillWriter wraps a temp file behind the binary record codec.
type spillWriter struct {
	f  *os.File
	cw *countingWriter
	rw *dataset.BinaryRecordWriter
}

// create makes a new temp file in the run's directory.
func (e *engine) create(kind string) (*os.File, error) {
	if e.dir == "" {
		dir, err := os.MkdirTemp(e.opts.TempDir, "disasso-shard-")
		if err != nil {
			return nil, fmt.Errorf("shard: temp dir: %w", err)
		}
		e.dir = dir
	}
	e.tmpSeq++
	f, err := os.Create(filepath.Join(e.dir, fmt.Sprintf("%s-%06d.rec", kind, e.tmpSeq)))
	if err != nil {
		return nil, fmt.Errorf("shard: %s: %w", kind, err)
	}
	e.files++
	return f, nil
}

// cleanup closes and removes every temp file. It runs on success and error
// paths alike: every staged byte has been copied out or the run already
// failed, so a close result cannot change the outcome.
func (e *engine) cleanup() {
	if e.spill != nil {
		_ = e.spill.f.Close()
	}
	if e.input != nil {
		_ = e.input.f.Close()
	}
	for _, f := range e.bodies {
		if f != nil {
			_ = f.Close()
		}
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
	f, err := e.create("root")
	if err != nil {
		return err
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

// Cut returns the shard cut of a streamed run over records records holding
// terms term occurrences in all: opts.MaxShardRecords when set, otherwise
// one shardsInFlight-th of the memory budget (DefaultMemoryBudget when
// budget is not positive), assuming pipelineExpansion bytes of working state
// per resident record byte, and never below MaxClusterSize. opts must be
// defaulted (core.ShardOptions): MaxClusterSize enters the formula.
func Cut(opts core.Options, budget int64, records int, terms int64) int {
	if opts.MaxShardRecords > 0 {
		return opts.MaxShardRecords
	}
	if budget <= 0 {
		budget = DefaultMemoryBudget
	}
	avgLen := float64(10)
	if records > 0 {
		avgLen = float64(terms) / float64(records)
	}
	perRecord := pipelineExpansion * float64(recordFootprint(int(math.Ceil(avgLen))))
	s := int(float64(budget) / perRecord / shardsInFlight)
	if s < opts.MaxClusterSize {
		s = opts.MaxClusterSize
	}
	return s
}

// processShards runs the core pipeline over every planned shard on the
// worker pool, each worker appending its shards' published clusters to its
// own body file. A derived cut sizes a shard to a shardsInFlight-th of the
// budget, so under one at most shardsInFlight shards run at once; an
// explicit cut runs one per worker.
func (e *engine) processShards() error {
	workers := min(max(e.copts.Parallel, 1), len(e.shards))
	if e.opts.Core.MaxShardRecords <= 0 {
		workers = min(workers, shardsInFlight)
	}
	e.bodies = make([]*os.File, workers)
	for w := range e.bodies {
		f, err := e.create("body")
		if err != nil {
			return err
		}
		e.bodies[w] = f
	}
	ends := make([]int64, workers) // each body file's length
	par.DoWorker(workers, len(e.shards), func(w, i int) {
		sh := &e.shards[i]
		records, err := e.loadShard(sh)
		if err != nil {
			sh.err = err
			return
		}
		for _, r := range records {
			e.dom.RestoreRecord(r)
		}
		path := make([]dataset.Term, len(sh.pathTerms))
		for j, a := range sh.pathTerms {
			path[j] = e.dom.TermOf(dataset.Term(a))
		}
		nodes := core.RunShard(records, path, i, nil, e.copts)

		sh.clusters = len(nodes)
		sh.body, sh.bodyOff = w, ends[w]
		sh.bodyLen, sh.err = e.stageBody(e.bodies[w], nodes)
		ends[w] += sh.bodyLen
	})
	for i := range e.shards {
		if e.shards[i].err != nil {
			return e.shards[i].err
		}
	}
	return nil
}

// loadShard materializes one shard's range of the shard-input file as dense
// records.
func (e *engine) loadShard(sh *fileShard) ([]dataset.Record, error) {
	rr := dataset.NewBinaryRecordReader(io.NewSectionReader(e.input.f, sh.off, sh.size))
	records := make([]dataset.Record, 0, sh.n)
	for {
		rec, err := rr.Next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("shard: load shard at %d: %w", sh.off, err)
		}
		records = append(records, rec)
	}
	if len(records) != sh.n {
		return nil, fmt.Errorf("shard: shard at %d holds %d records, planned %d", sh.off, len(records), sh.n)
	}
	return records, nil
}

// stageBody appends one shard's published clusters to a body file in the
// output format's per-cluster framing and returns the bytes written. JSON
// bodies carry a leading ",\n    " separator before every cluster; assembly
// strips the very first comma.
func (e *engine) stageBody(f *os.File, nodes []*core.ClusterNode) (int64, error) {
	cw := &countingWriter{w: f}
	var err error
	if e.opts.JSON {
		bw := bufio.NewWriter(cw)
		if err = writeJSONBody(bw, nodes); err == nil {
			err = bw.Flush()
		}
	} else {
		bw := core.NewBinaryClusterWriter(cw)
		for _, n := range nodes {
			if err = bw.Append(n); err != nil {
				break
			}
		}
		if err == nil {
			err = bw.Flush()
		}
	}
	e.spillBytes.Add(cw.n)
	return cw.n, err
}

// assemble copies the staged bodies behind the format header, in shard
// order, producing the exact WriteBinary/WriteJSON bytes (the envelope
// pieces come from the same core helpers every path shares).
func (e *engine) assemble(w io.Writer) error {
	total := 0
	for i := range e.shards {
		total += e.shards[i].clusters
	}
	if !e.opts.JSON {
		if err := core.WriteBinaryHeader(w, e.copts.K, e.copts.M, total); err != nil {
			return err
		}
	} else {
		if err := core.WriteJSONHeader(w, e.copts.K, e.copts.M); err != nil {
			return err
		}
		if total == 0 {
			return core.WriteJSONTrailer(w, 0)
		}
		if _, err := io.WriteString(w, "["); err != nil {
			return err
		}
	}
	first := e.opts.JSON
	for i := range e.shards {
		sh := &e.shards[i]
		off, n := sh.bodyOff, sh.bodyLen
		if first && sh.clusters > 0 {
			// Drop the first cluster's leading comma: "[\n    {...".
			off, n, first = off+1, n-1, false
		}
		if _, err := io.Copy(w, io.NewSectionReader(e.bodies[sh.body], off, n)); err != nil {
			return err
		}
	}
	if e.opts.JSON {
		return core.WriteJSONTrailer(w, total)
	}
	return nil
}
