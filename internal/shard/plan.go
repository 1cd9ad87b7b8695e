package shard

import (
	"errors"
	"fmt"
	"io"
	"os"

	"disasso/internal/core"
	"disasso/internal/dataset"
)

// The engine plans its shards with core.Plan, the one shard-plan recursion
// the in-memory path runs too: source is the core.PlanSource behind every
// node. For equal options both paths therefore cut the split tree at
// identical nodes, and the concatenated per-shard outputs are byte-identical
// to the in-memory path.
//
// A node is planned in memory once its records fit the planning share: the
// node's file is read once into a dataset.RecordSlab (the spill codec's
// bytes, over dense ids) and every split below it is a stable partition of
// the slab's record offsets.
// Nodes that do not fit route through files, each split streaming the
// node's file into a with-file and a without-file, so a root that does not
// fit routes through files only until a descendant fits. The planner visits
// nodes depth first and hands each leaf to the engine as it decides it, so a
// slab's subtree is done before the next node loads one: at most one slab is
// resident.

// source is one shard-plan node. A resident node is a run of a slab's record
// offsets; any other node is a spill file of binary records, dense term ids
// except in the root, which keeps its original terms until it is split or
// loaded.
type source struct {
	e *engine
	n int

	// Resident: the node's records start at recs' offsets in slab.
	slab dataset.RecordSlab
	recs []int32

	// On disk: path is "" once the node is resident.
	path  string
	size  int64
	dense bool
}

func (s *source) Len() int { return s.n }

// records streams the node's file, handing fn each record as dense ids; the
// record's storage is reused after fn returns.
func (s *source) records(fn func(dataset.Record) error) error {
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	defer f.Close()
	rr := dataset.NewBinaryRecordReader(f)
	var buf, dense dataset.Record
	for {
		rec, err := rr.Next(buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("shard: read %s: %w", s.path, err)
		}
		buf = rec
		if !s.dense {
			dense = s.e.remap(rec, dense[:0])
			rec = dense
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// Count computes the node's dense per-term supports. It is never asked of
// the root, whose supports the counting pass supplies.
func (s *source) Count() ([]int32, error) {
	if err := s.load(); err != nil {
		return nil, err
	}
	counts := make([]int32, s.e.dom.Len())
	if s.path == "" {
		for _, off := range s.recs {
			s.slab.Count(int(off), counts)
		}
		return counts, nil
	}
	return counts, s.records(func(rec dataset.Record) error {
		for _, t := range rec {
			counts[t]++
		}
		return nil
	})
}

// Split partitions the node on dense term a, preserving record order on
// both sides, and counts the with side's supports (they steer the immediate
// with-recursion; the planner derives the without side's by subtraction).
// sup is the with side's record count.
func (s *source) Split(a, sup int32) (with, without *source, withCounts []int32, err error) {
	if err := s.load(); err != nil {
		return nil, nil, nil, err
	}
	if s.path != "" {
		return s.splitFile(a)
	}
	// The without side compacts in place at the front of recs and the with
	// side moves behind it: the with-subtree, planned first, partitions only
	// its own run further.
	s.e.slabSplits++
	withCounts = make([]int32, s.e.dom.Len())
	moved := make([]int32, 0, sup)
	kept := 0
	for _, off := range s.recs {
		if !s.slab.Has(int(off), dataset.Term(a)) {
			s.recs[kept] = off
			kept++
			continue
		}
		moved = append(moved, off)
		s.slab.Count(int(off), withCounts)
	}
	copy(s.recs[kept:], moved)
	with = &source{e: s.e, n: len(moved), slab: s.slab, recs: s.recs[kept:]}
	without = &source{e: s.e, n: kept, slab: s.slab, recs: s.recs[:kept]}
	return with, without, withCounts, nil
}

// errNoFit abandons a load that outgrew the planning share.
var errNoFit = errors.New("shard: node does not fit the planning share")

// load makes an on-disk node resident if it fits the planning share: its
// slab plus 8 bytes a record for the offsets and the partition scratch. A
// dense file's size is known up front. The root's records are remapped to
// dense ids on the way in, so its dense size is known only as it loads; past
// the share the load is abandoned and the root routes through files. The
// node's file is removed once it is resident.
func (s *source) load() error {
	if s.path == "" {
		return nil
	}
	e := s.e
	limit := e.planShare - 8*int64(s.n)
	if limit < 0 || (s.dense && s.size > limit) {
		return nil
	}
	slab := make(dataset.RecordSlab, 0, min(s.size, limit))
	recs := make([]int32, 0, s.n)
	err := s.records(func(rec dataset.Record) error {
		recs = append(recs, int32(len(slab)))
		slab = slab.Append(rec)
		if int64(len(slab)) > limit {
			return errNoFit
		}
		return nil
	})
	if errors.Is(err, errNoFit) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(recs) != s.n {
		return fmt.Errorf("shard: %s holds %d records, planned %d", s.path, len(recs), s.n)
	}
	os.Remove(s.path)
	s.slab, s.recs, s.path = slab, recs, ""
	return nil
}

// splitFile routes the node's file on dense term a: records containing a
// stream to the with-file, the rest to the without-file, and the node's own
// file is removed.
func (s *source) splitFile(a int32) (with, without *source, withCounts []int32, err error) {
	e := s.e
	e.fileSplits++
	wf, err := e.create("with")
	if err != nil {
		return nil, nil, nil, err
	}
	defer wf.Close()
	wof, err := e.create("wo")
	if err != nil {
		return nil, nil, nil, err
	}
	defer wof.Close()

	wcw := &countingWriter{w: wf}
	wocw := &countingWriter{w: wof}
	ww := dataset.NewBinaryRecordWriter(wcw)
	wow := dataset.NewBinaryRecordWriter(wocw)
	withCounts = make([]int32, e.dom.Len())
	with = &source{e: e, path: wf.Name(), dense: true}
	without = &source{e: e, path: wof.Name(), dense: true}
	err = s.records(func(rec dataset.Record) error {
		if rec.Contains(dataset.Term(a)) {
			for _, t := range rec {
				withCounts[t]++
			}
			with.n++
			return ww.Write(rec)
		}
		without.n++
		return wow.Write(rec)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	os.Remove(s.path)
	if err := ww.Flush(); err != nil {
		return nil, nil, nil, err
	}
	if err := wow.Flush(); err != nil {
		return nil, nil, nil, err
	}
	with.size, without.size = wcw.n, wocw.n
	e.spillBytes.Add(wcw.n + wocw.n)
	if err := wf.Close(); err != nil {
		return nil, nil, nil, err
	}
	return with, without, withCounts, wof.Close()
}

// emit appends one planned leaf's records to the shard-input file, dense and
// in plan order, and releases the leaf's file.
func (e *engine) emit(l core.PlanLeaf[*source]) error {
	s := l.Source
	sh := fileShard{off: e.input.n, n: s.n, pathTerms: l.Path}
	if s.path == "" {
		for _, off := range s.recs {
			if _, err := e.input.Write(s.slab[off:s.slab.End(int(off))]); err != nil {
				return err
			}
		}
	} else {
		rw := dataset.NewBinaryRecordWriter(e.input)
		if err := s.records(rw.Write); err != nil {
			return err
		}
		if err := rw.Flush(); err != nil {
			return err
		}
		os.Remove(s.path)
	}
	sh.size = e.input.n - sh.off
	e.shards = append(e.shards, sh)
	return nil
}

// remap rewrites a record from original terms to dense ids into dst.
func (e *engine) remap(rec dataset.Record, dst dataset.Record) dataset.Record {
	for _, t := range rec {
		id, ok := e.dom.ID(t)
		if !ok {
			panic("shard: spilled term outside domain")
		}
		dst = append(dst, dataset.Term(id))
	}
	return dst
}

// writeJSONBody stages one shard's clusters in the JSON format: every
// cluster prefixed by the ",\n    " element separator (assembly strips the
// leading comma of the very first cluster overall).
func writeJSONBody(w io.Writer, nodes []*core.ClusterNode) error {
	for _, n := range nodes {
		body, err := core.MarshalClusterJSON(n)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, ",\n    "); err != nil {
			return err
		}
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}
