package shard

import (
	"fmt"
	"io"
	"os"

	"disasso/internal/core"
	"disasso/internal/dataset"
)

// The engine plans its shards with core.Plan, the one shard-plan recursion
// the in-memory path runs too, over spill files: spillFile is the
// core.PlanSource whose split routes a node's file into two child files. For
// equal options both paths therefore cut the split tree at identical nodes,
// and the concatenated per-shard outputs are byte-identical to the in-memory
// path.

// spillFile is one shard-plan node backed by a spill file of binary records:
// dense term ids, except for the root, which keeps its original terms until
// its first split remaps them.
type spillFile struct {
	e     *engine
	path  string
	n     int
	dense bool
}

func (s spillFile) Len() int { return s.n }

// Count computes the node's dense per-term supports in one streaming pass.
// It is never asked of the root, whose supports the counting pass supplies,
// so the file holds dense ids.
func (s spillFile) Count() ([]int32, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	counts := make([]int32, s.e.dom.Len())
	rr := dataset.NewBinaryRecordReader(f)
	var buf dataset.Record
	for {
		rec, err := rr.Next(buf)
		if err == io.EOF {
			return counts, nil
		}
		if err != nil {
			return nil, fmt.Errorf("shard: count %s: %w", s.path, err)
		}
		for _, t := range rec {
			counts[t]++
		}
		buf = rec
	}
}

// Split routes the node's file on dense term a: records containing a
// stream to the with-file, the rest to the without-file, preserving order on
// both sides, and the node's own file is removed. The with-side supports are
// counted during the pass (they steer the immediate with-recursion); the
// planner derives the without side's by subtraction. Records of the root
// file (original terms) are remapped to dense ids here, so every routed file
// holds dense records.
func (s spillFile) Split(a, _ int32) (with, without spillFile, withCounts []int32, err error) {
	e := s.e
	f, err := os.Open(s.path)
	if err != nil {
		return with, without, nil, err
	}
	defer os.Remove(s.path)
	defer f.Close()

	withPath, woPath := e.tmpPath("with"), e.tmpPath("wo")
	wf, err := os.Create(withPath)
	if err != nil {
		return with, without, nil, err
	}
	defer wf.Close()
	wof, err := os.Create(woPath)
	if err != nil {
		return with, without, nil, err
	}
	defer wof.Close()

	wcw := &countingWriter{w: wf}
	wocw := &countingWriter{w: wof}
	ww := dataset.NewBinaryRecordWriter(wcw)
	wow := dataset.NewBinaryRecordWriter(wocw)
	withCounts = make([]int32, e.dom.Len())
	with = spillFile{e: e, path: withPath, dense: true}
	without = spillFile{e: e, path: woPath, dense: true}

	rr := dataset.NewBinaryRecordReader(f)
	var buf, denseBuf dataset.Record
	for {
		rec, rerr := rr.Next(buf)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return with, without, nil, fmt.Errorf("shard: route %s: %w", s.path, rerr)
		}
		buf = rec
		if !s.dense {
			denseBuf = e.remap(rec, denseBuf[:0])
			rec = denseBuf
		}
		if rec.Contains(dataset.Term(a)) {
			for _, t := range rec {
				withCounts[t]++
			}
			with.n++
			err = ww.Write(rec)
		} else {
			without.n++
			err = wow.Write(rec)
		}
		if err != nil {
			return with, without, nil, fmt.Errorf("shard: route %s: %w", s.path, err)
		}
	}
	if err := ww.Flush(); err != nil {
		return with, without, nil, err
	}
	if err := wow.Flush(); err != nil {
		return with, without, nil, err
	}
	e.spillBytes.Add(wcw.n + wocw.n)
	if err := wf.Close(); err != nil {
		return with, without, nil, err
	}
	return with, without, withCounts, wof.Close()
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

// assembleJSON stitches the staged JSON bodies behind the WriteJSON header,
// reproducing its bytes exactly (the envelope pieces come from the same
// core.WriteJSONHeader/WriteJSONTrailer every JSON path shares).
func (e *engine) assembleJSON(w io.Writer) error {
	if err := core.WriteJSONHeader(w, e.copts.K, e.copts.M); err != nil {
		return err
	}
	total := 0
	for i := range e.shards {
		total += e.shards[i].clusters
	}
	if total == 0 {
		return core.WriteJSONTrailer(w, 0)
	}
	if _, err := io.WriteString(w, "["); err != nil {
		return err
	}
	first := true
	for i := range e.shards {
		if e.shards[i].clusters == 0 {
			os.Remove(e.shards[i].bodyPath)
			continue
		}
		f, err := os.Open(e.shards[i].bodyPath)
		if err != nil {
			return err
		}
		if first {
			// Drop the first cluster's leading comma: "[\n    {...".
			if _, err := f.Seek(1, io.SeekStart); err != nil {
				f.Close()
				return err
			}
			first = false
		}
		_, err = io.Copy(w, f)
		f.Close()
		if err != nil {
			return err
		}
		os.Remove(e.shards[i].bodyPath)
	}
	return core.WriteJSONTrailer(w, total)
}
