// Command replay is disassobench's traced run. It regenerates one
// workload's inputs from the same config and seed, replays a fixed number
// of the workload's operations in-process, and calls each layer's public
// functions in the order internal/server's handlers call them, recording a
// span around every call. Spans stay in memory and are written as JSON at
// exit. It adds no spans inside the program: the handlers' internal work
// between layer calls (JSON, the support cache, HTTP) shows up as the self
// time of each operation span, or not at all.
//
//	replay -config cfg.json -dir WORKDIR -out spans.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"disasso/bench/internal/inputs"
	"disasso/bench/internal/spans"
	"disasso/internal/breach"
	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/query"
	"disasso/internal/server"
	"disasso/internal/shard"
	"disasso/internal/snapfile"
)

func main() {
	cfgPath := flag.String("config", "", "workload config (JSON)")
	dir := flag.String("dir", "", "scratch directory for snapshot and spill files")
	out := flag.String("out", "", "span file to write")
	flag.Parse()
	if err := run(*cfgPath, *dir, *out); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

func run(cfgPath, dir, out string) error {
	b, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	var cfg inputs.Config
	if err := json.Unmarshal(b, &cfg); err != nil {
		return err
	}
	in, err := inputs.Generate(cfg)
	if err != nil {
		return err
	}
	for _, d := range []string{dir, filepath.Join(dir, "data"), filepath.Join(dir, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	r := &replayer{
		cfg: cfg, in: in, t: spans.NewTracer(),
		dataDir: filepath.Join(dir, "data"), tmpDir: filepath.Join(dir, "tmp"),
		pubs: map[string]*pub{},
	}
	cost := spans.Cost()
	start := time.Now()
	var names []string
	switch cfg.Workload {
	case inputs.Publish:
		names, err = r.publish()
	case inputs.PublishSafe:
		names, err = r.publishSafe()
	default:
		names, err = r.read()
	}
	if err == nil {
		err = r.probe(names)
	}
	if err == nil {
		err = r.recover(names)
	}
	if err == nil {
		err = r.reference(names[0])
	}
	if err != nil {
		return err
	}
	wall := time.Since(start)
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(spans.File{Spans: r.t.Spans, CostNS: cost, WallNS: int64(wall)})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// pub is a replayed publication: the fields of the server's snapshot that
// the handlers read back.
type pub struct {
	name      string
	a         *core.Anonymized
	est       *query.Estimator
	sum       core.Summary
	opts      core.Options
	orig      *dataset.Dataset // nil for streamed publishes
	st        *core.RepubState
	parts     []*query.EstimatorPart
	streamed  bool
	version   int
	shardRecs int
}

type replayer struct {
	cfg     inputs.Config
	in      *inputs.Inputs
	t       *spans.Tracer
	dataDir string
	tmpDir  string
	pubs    map[string]*pub
}

func (r *replayer) coreOptions(shardRecords int, safe bool) core.Options {
	return core.Options{K: inputs.K, M: inputs.M, MaxShardRecords: shardRecords, Seed: r.cfg.Seed, SafeDisassociation: safe}
}

// bit is a span count recording an on/off property of the call.
func bit(on bool) int64 {
	if on {
		return 1
	}
	return 0
}

// publishInMemory mirrors handlePublish → publishInMemory →
// newStateSnapshot, then persist and install.
func (r *replayer) publishInMemory(op int32, name string, text []byte, opts core.Options) (*pub, error) {
	id := r.t.Begin("dataset.read_ids", op)
	d, err := dataset.ReadIDs(bytes.NewReader(text))
	r.t.End(id, nil)
	if err != nil {
		return nil, err
	}
	id = r.t.Begin("core.anonymize", op)
	a, st, err := core.AnonymizeWithState(d, opts)
	r.t.End(id, map[string]int64{"safe": bit(opts.SafeDisassociation)})
	if err != nil {
		return nil, err
	}
	id = r.t.Begin("query.build_parts", op)
	parts := make([]*query.EstimatorPart, st.NumShards())
	for i := range parts {
		parts[i] = query.BuildEstimatorPart(a.K, a.M, st.ShardClusters(i))
	}
	r.t.End(id, map[string]int64{"parts": int64(len(parts))})
	p := r.stateSnapshot(op, name, a, st, parts, d, opts)
	p.shardRecs = opts.MaxShardRecords
	return p, r.install(op, p)
}

// stateSnapshot mirrors newStateSnapshot.
func (r *replayer) stateSnapshot(op int32, name string, a *core.Anonymized, st *core.RepubState, parts []*query.EstimatorPart, orig *dataset.Dataset, opts core.Options) *pub {
	id := r.t.Begin("core.stats", op)
	sum := a.Stats()
	r.t.End(id, nil)
	id = r.t.Begin("query.from_parts", op)
	est := query.NewEstimatorFromParts(a, parts)
	r.t.End(id, nil)
	return &pub{name: name, a: a, est: est, sum: sum, opts: opts, orig: orig, st: st, parts: parts}
}

// publishStreamed mirrors publishStreamed → newSnapshot, then persist and
// install.
func (r *replayer) publishStreamed(op int32, name string, text []byte, opts core.Options) (*pub, error) {
	budget, err := dataset.ParseByteSize("1M")
	if err != nil {
		return nil, err
	}
	spill, err := os.CreateTemp(r.tmpDir, "disassod-publish-*.bin")
	if err != nil {
		return nil, err
	}
	defer func() {
		_ = spill.Close()
		_ = os.Remove(spill.Name())
	}()
	bw := bufio.NewWriter(spill)
	id := r.t.Begin("shard.anonymize", op)
	st, err := shard.Anonymize(bytes.NewReader(text), bw, shard.Options{Core: opts, MemoryBudget: budget, TempDir: r.tmpDir})
	r.t.End(id, map[string]int64{"spill_bytes": st.SpillBytes, "shards": int64(st.Shards)})
	if err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	if _, err := spill.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	id = r.t.Begin("core.read_binary", op)
	a, err := core.ReadBinary(bufio.NewReader(spill))
	r.t.End(id, nil)
	if err != nil {
		return nil, err
	}
	id = r.t.Begin("query.new_estimator", op)
	est := query.NewEstimator(a)
	r.t.End(id, nil)
	id = r.t.Begin("core.stats", op)
	sum := a.Stats()
	r.t.End(id, nil)
	p := &pub{name: name, a: a, est: est, sum: sum, opts: opts, streamed: true, shardRecs: st.ShardRecords}
	return p, r.install(op, p)
}

// install numbers the version like handlePublish, persists, and registers.
func (r *replayer) install(op int32, p *pub) error {
	p.version = 1
	if old, ok := r.pubs[p.name]; ok {
		p.version = old.version + 1
	}
	if err := r.persist(op, p); err != nil {
		return err
	}
	r.pubs[p.name] = p
	return nil
}

// countingWriter counts the bytes a snapshot write produces.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += int64(n)
	return n, err
}

// persist mirrors Server.persist: write to a temp file, fsync, rename over
// the artifact, fsync the directory. The rename span covers the directory
// sync.
func (r *replayer) persist(op int32, p *pub) error {
	c := snapfile.Contents{
		Meta: snapfile.Meta{
			Name: p.name, K: p.a.K, M: p.a.M,
			Records: p.sum.Records, Terms: p.sum.DistinctTerms, Clusters: len(p.a.Clusters),
			Streamed: p.streamed, Version: p.version, ShardRecords: p.shardRecs,
			Opts: p.opts, Summary: p.sum,
		},
		Forest: p.a, Index: p.est.Index(), Singles: p.est.Singles(), Original: p.orig,
	}
	f, err := os.CreateTemp(r.dataDir, p.name+"-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cw := &countingWriter{w: f}
	bw := bufio.NewWriter(cw)
	id := r.t.Begin("snapfile.write", op)
	err = c.Write(bw)
	if err == nil {
		err = bw.Flush()
	}
	r.t.End(id, map[string]int64{"bytes": cw.n})
	if err == nil {
		id = r.t.Begin("snapfile.fsync", op)
		err = f.Sync()
		r.t.End(id, nil)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		id = r.t.Begin("snapfile.rename", op)
		err = os.Rename(tmp, filepath.Join(r.dataDir, p.name+".snap"))
		if err == nil {
			err = syncDir(r.dataDir)
		}
		r.t.End(id, nil)
	}
	if err != nil {
		_ = os.Remove(tmp)
	}
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// delta mirrors handleDelta on a dataset holding live republish state.
func (r *replayer) delta(op int32, name string, text []byte, remove bool) error {
	p := r.pubs[name]
	id := r.t.Begin("dataset.read_ids", op)
	d, err := dataset.ReadIDs(bytes.NewReader(text))
	r.t.End(id, nil)
	if err != nil {
		return err
	}
	var delta core.Delta
	if remove {
		delta.Remove = d.Records
	} else {
		delta.Append = d.Records
	}
	id = r.t.Begin("core.apply", op)
	a, st, stats, err := p.st.Apply(delta)
	r.t.End(id, map[string]int64{"dirty": int64(stats.DirtyShards), "total": int64(stats.TotalShards), "full": bit(stats.FullRepublish)})
	if err != nil {
		return err
	}
	id = r.t.Begin("query.build_parts", op)
	var next []*query.EstimatorPart
	if stats.FullRepublish {
		next = make([]*query.EstimatorPart, st.NumShards())
		for i := range next {
			next[i] = query.BuildEstimatorPart(a.K, a.M, st.ShardClusters(i))
		}
		r.t.End(id, map[string]int64{"parts": int64(len(next))})
	} else {
		next = slices.Clone(p.parts)
		for _, si := range stats.Dirty {
			next[si] = query.BuildEstimatorPart(a.K, a.M, st.ShardClusters(si))
		}
		r.t.End(id, map[string]int64{"parts": int64(len(stats.Dirty))})
	}
	np := r.stateSnapshot(op, name, a, st, next, dataset.FromRecords(st.Records()), p.opts)
	np.shardRecs = p.shardRecs
	np.version = p.version + 1
	if err := r.persist(op, np); err != nil {
		return err
	}
	r.pubs[name] = np
	return nil
}

// audit mirrors handleBreaches' first request on a snapshot.
func (r *replayer) audit(op int32, p *pub) *breach.Report {
	id := r.t.Begin("breach.audit", op)
	rep := breach.Audit(p.a)
	r.t.End(id, map[string]int64{"findings": int64(len(rep.Findings)), "safe": bit(p.opts.SafeDisassociation)})
	return rep
}

// readBatch mirrors handleSupport with the support cache missing: decode,
// one estimate per itemset, indented encode, under an operation span named
// opName. The posting intersection each multi-term estimate performs inside
// the estimator is then repeated outside the operation as its own span, to
// measure the qindex layer. Every estimate must have ordered bounds.
func (r *replayer) readBatch(p *pub, batch [][]dataset.Term, opName string) error {
	body, err := json.Marshal(server.SupportRequest{Itemsets: batch})
	if err != nil {
		return err
	}
	op := r.t.Begin(opName, -1)
	var req server.SupportRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return err
	}
	resp := server.SupportResponse{Estimates: make([]server.ItemsetEstimate, len(req.Itemsets))}
	for i, terms := range req.Itemsets {
		s := dataset.NewRecord(terms...)
		name := "query.support_itemset"
		if len(s) == 1 {
			name = "query.support_singleton"
		}
		id := r.t.Begin(name, op)
		est := p.est.Support(s)
		r.t.End(id, nil)
		resp.Estimates[i] = server.ItemsetEstimate{Itemset: s, Lower: est.Lower, Upper: est.Upper, Expected: est.Expected}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(resp)
	r.t.End(op, nil)
	if err != nil {
		return err
	}

	ix := p.est.Index()
	for _, e := range resp.Estimates {
		if float64(e.Lower) > e.Expected || e.Expected > float64(e.Upper) {
			return fmt.Errorf("itemset %v: bounds out of order: %+v", e.Itemset, e)
		}
		if len(e.Itemset) < 2 {
			continue
		}
		shortest := -1
		for _, t := range e.Itemset {
			n := 0
			if rank, ok := ix.Rank(t); ok {
				n = len(ix.Postings(rank))
			}
			if shortest < 0 || n < shortest {
				shortest = n
			}
		}
		id := r.t.Begin("qindex.intersect", -1)
		got := ix.IntersectClusters(nil, e.Itemset)
		r.t.End(id, map[string]int64{"postings": int64(shortest), "candidates": int64(len(got))})
	}
	return nil
}

// probe mirrors the probe phase: every probe itemset, in request-sized
// batches, on every dataset.
func (r *replayer) probe(names []string) error {
	for _, name := range names {
		for lo := 0; lo < len(r.in.Probes); lo += r.cfg.Batch {
			if err := r.readBatch(r.pubs[name], r.in.Probes[lo:min(lo+r.cfg.Batch, len(r.in.Probes))], "probe"); err != nil {
				return fmt.Errorf("dataset %q: %w", name, err)
			}
		}
	}
	return nil
}

// recover mirrors a restart: Recover's snapfile.Open and snapshotFromFile
// for every dataset, then the first batch each one answers. The answers
// must equal the live estimator's.
func (r *replayer) recover(names []string) error {
	first := r.in.Probes[:min(r.cfg.Batch, len(r.in.Probes))]
	return r.span("recover", -1, func(op int32) error {
		for _, name := range names {
			id := r.t.Begin("snapfile.open", op)
			f, err := snapfile.Open(filepath.Join(r.dataDir, name+".snap"))
			r.t.End(id, nil)
			if err != nil {
				return err
			}
			id = r.t.Begin("query.recovered_estimator", op)
			est := query.NewRecoveredEstimator(f.Forest(), f.Index(), f.Singles())
			r.t.End(id, nil)
			id = r.t.Begin("query.cold_support", op)
			got := make([]query.Estimate, len(first))
			for i, s := range first {
				got[i] = est.Support(dataset.NewRecord(s...))
			}
			r.t.End(id, map[string]int64{"itemsets": int64(len(first))})
			for i, s := range first {
				if want := r.pubs[name].est.Support(dataset.NewRecord(s...)); got[i] != want {
					return fmt.Errorf("dataset %q: recovered estimate of %v is %+v, published %+v", name, s, got[i], want)
				}
			}
		}
		return nil
	})
}

// span runs f inside a span named name under parent (-1 for a top-level
// span) and returns f's error.
func (r *replayer) span(name string, parent int32, f func(id int32) error) error {
	id := r.t.Begin(name, parent)
	err := f(id)
	r.t.End(id, nil)
	return err
}

// publish replays the publish workload's set-up and ReplayOps cycles and
// returns the datasets it leaves published, the one it serves first.
func (r *replayer) publish() ([]string, error) {
	err := r.span("setup", -1, func(op int32) error {
		_, err := r.publishInMemory(op, "live", r.in.Text, r.coreOptions(2000, false))
		return err
	})
	n := len(r.in.Records)
	for c := 0; c < r.cfg.ReplayOps && err == nil; c++ {
		err = r.span("op", -1, func(op int32) error {
			err := r.span("req.publish", op, func(id int32) error {
				_, err := r.publishInMemory(id, "paper", r.in.Text, r.coreOptions(0, false))
				return err
			})
			if err == nil {
				err = r.span("req.stream", op, func(id int32) error {
					_, err := r.publishStreamed(id, "paper-stream", r.in.Text, r.coreOptions(0, false))
					return err
				})
			}
			for _, text := range r.in.DeltaTexts {
				for _, remove := range []bool{false, true} {
					if err == nil {
						err = r.span("req.delta", op, func(id int32) error { return r.delta(id, "live", text, remove) })
					}
				}
			}
			return err
		})
		if got := r.pubs["live"].st.NumRecords(); err == nil && got != n {
			err = fmt.Errorf("live holds %d records after append/remove pairs, want %d", got, n)
		}
	}
	return []string{"paper", "paper-stream", "live"}, err
}

// publishSafe replays the publish-safe workload's set-up and ReplayOps
// operations. Its set-up publishes the same input with safe disassociation
// off, the base of the safe-repair share; an audit of that publication,
// outside any operation, counts the breaches repair removes.
func (r *replayer) publishSafe() ([]string, error) {
	var plain *pub
	err := r.span("setup", -1, func(op int32) error {
		var err error
		plain, err = r.publishInMemory(op, "safe", r.in.Text, r.coreOptions(0, false))
		return err
	})
	if err != nil {
		return nil, err
	}
	r.audit(-1, plain)
	for i := 0; i < r.cfg.ReplayOps && err == nil; i++ {
		err = r.span("op", -1, func(op int32) error {
			var p *pub
			err := r.span("req.publish", op, func(id int32) error {
				var err error
				p, err = r.publishInMemory(id, "safe", r.in.Text, r.coreOptions(0, true))
				return err
			})
			if err != nil {
				return err
			}
			return r.span("req.audit", op, func(id int32) error {
				if rep := r.audit(id, p); !rep.Clean() {
					return fmt.Errorf("safe publication has %d breach findings", len(rep.Findings))
				}
				return nil
			})
		})
	}
	return []string{"safe"}, err
}

// read replays a read workload's set-up and the first ReplayOps batches of
// client 0's stream (the batches the untraced client 0 sent first).
func (r *replayer) read() ([]string, error) {
	var p *pub
	err := r.span("setup", -1, func(op int32) error {
		var err error
		p, err = r.publishInMemory(op, "paper", r.in.Text, r.coreOptions(0, false))
		return err
	})
	g := r.in.Queries(0)
	for i := 0; i < r.cfg.ReplayOps && err == nil; i++ {
		err = r.readBatch(p, g.Batch(r.cfg.Batch), "op")
	}
	return []string{"paper"}, err
}

// referenceDelta is how many records the reference delta removes, as many
// as one publish-workload delta batch holds.
const referenceDelta = 20

// reference makes, once and outside any operation, each layer call that
// the workload's operations never make, on the workload's own records: a
// streamed publish, a delta removing the first referenceDelta records from
// the served dataset, and a breach audit of it. Every per-layer time is
// therefore measured on every workload. Where the operations skip a layer,
// its numbers describe the layer on this workload's data, and the
// workload's end-to-end metrics are predicted not to depend on them.
func (r *replayer) reference(served string) error {
	return r.span("reference", -1, func(op int32) error {
		if r.cfg.Workload != inputs.Publish {
			if _, err := r.publishStreamed(op, "reference-stream", r.in.Text, r.coreOptions(0, false)); err != nil {
				return err
			}
			if err := r.delta(op, served, inputs.EncodeText(r.in.Records[:referenceDelta]), true); err != nil {
				return err
			}
		}
		if r.cfg.Workload != inputs.PublishSafe {
			r.audit(op, r.pubs[served])
		}
		return nil
	})
}
