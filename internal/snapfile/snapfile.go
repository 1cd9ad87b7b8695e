// Package snapfile defines the on-disk snapshot format that makes disassod
// restarts O(1) in anonymization work: everything a published dataset needs
// to serve reads — the cluster forest, the inverted index's slabs, the
// estimator's singleton table and (optionally) the retained original records
// — persisted as one versioned, sectioned, little-endian file.
//
// The format is built for zero-copy recovery. The dense-rank domain, the
// prefix-sum offsets, the posting slab of cluster ids and the singleton
// table are fixed-width little-endian slabs whose byte layout matches the
// in-memory layout on 64-bit little-endian hosts, so the reader reconstructs
// qindex/query views as slice casts over a memory mapping of the file:
// posting reads on a recovered snapshot never materialize the slab into the
// heap. Variable-length payloads reuse the repository's existing delta-varint
// codecs (core.WriteBinary for the forest, dataset.AppendRecord for the
// original records) instead of inventing a second encoding.
//
// Layout (all integers little-endian):
//
//	header (16 bytes): magic "DSNP", u32 version (=2), u32 section count,
//	                   u32 reserved (0)
//	section table    : count × 24 bytes — u32 id, u32 crc32 (IEEE, over the
//	                   payload), u64 offset, u64 length
//	payloads         : each starting at an 8-byte-aligned offset (zero
//	                   padding between), so every slab cast is aligned
//
// Sections (ids; F = fixed width, V = delta-varint):
//
//	1 meta      V  JSON: name, parameters, version, summary, publish options
//	2 forest    V  the published cluster forest, core.WriteBinary bytes
//	3 domain    F  u32 × |T|: the dense-rank term domain, ascending
//	4 postoff   F  u32 × (|T|+1): per-rank prefix sums into the posting slab
//	5 postings  F  u32 × P: cluster ids, each rank's list strictly ascending
//	7 singles   F  24 B × |T|: i64 lower, i64 upper, f64 expected
//	8 original  V  optional: the retained original records back to back,
//	               each framed by dataset.AppendRecord
//
// Id 6 is retired; a reader rejects it like any other id the format does
// not define, and rejects every other format version (there is no reader
// for version 1, whose postings were 8 bytes wide: disassod's recovery
// skips and reports such files).
//
// Every section carries its own CRC; a reader verifies all of them before
// serving anything, so torn or bit-rotted files are detected at open time
// (the disassod startup scan skips and reports such files rather than
// aborting recovery).
package snapfile

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/par"
	"disasso/internal/qindex"
	"disasso/internal/query"
)

// Format constants.
const (
	magic          = "DSNP"
	formatVersion  = 2
	headerSize     = 16
	tableEntrySize = 24
	sectionAlign   = 8
)

// Section ids.
const (
	secMeta     = 1
	secForest   = 2
	secDomain   = 3
	secPostOff  = 4
	secPostings = 5
	secSingles  = 7
	secOriginal = 8
)

// requiredSections are the sections every snapshot carries. secOriginal is
// the one optional section; no other id is defined.
var requiredSections = []uint32{secMeta, secForest, secDomain, secPostOff, secPostings, secSingles}

// Fixed-width entry sizes: the domain, offset and posting slabs hold 4-byte
// integers, the singleton table Estimates.
const (
	int32Size    = 4
	estimateSize = 24
)

// Meta is the snapshot's JSON-encoded metadata section: everything disassod
// needs to rebuild its registry entry (and, together with the original
// section, to rehydrate delta-republish state) without touching the slabs.
// Streamed marks a stream=1 publication; its Opts carry the cut the budget
// derived, so rehydration reproduces it.
type Meta struct {
	Name     string `json:"name"`
	K        int    `json:"k"`
	M        int    `json:"m"`
	Records  int    `json:"records"`
	Terms    int    `json:"terms"`
	Clusters int    `json:"clusters"`
	Streamed bool   `json:"streamed,omitempty"`
	Version  int    `json:"version"`
	// ShardRecords is the effective shard cut the publication was produced
	// with (see server.DatasetInfo).
	ShardRecords int `json:"shard_records,omitempty"`
	// Opts are the effective anonymization options of the publication. With
	// the original records they are sufficient to reproduce the published
	// bytes from scratch — the delta-republish rehydration path relies on it.
	Opts core.Options `json:"opts"`
	// Summary is the publication's precomputed shape summary, persisted so
	// the stats endpoint needs no forest walk at recovery.
	Summary core.Summary `json:"summary"`
}

// Contents is everything Write persists for one snapshot.
type Contents struct {
	Meta Meta
	// Forest is the published cluster forest.
	Forest *core.Anonymized
	// Index is the inverted index over Forest; its three slabs are written
	// as the fixed-width sections.
	Index *qindex.Index
	// Singles is the estimator's singleton table, in the index's rank order.
	Singles []query.Estimate
	// Original is the publication's original dataset. disassod always
	// writes it and skips a file without it on recovery, since deltas and
	// metrics need it; nil writes no original section, which the reader
	// accepts.
	Original *dataset.Dataset
}

// Write serializes the snapshot to w. The output is deterministic: equal
// contents produce equal bytes on every platform (the golden-file test pins
// this).
func (c Contents) Write(w io.Writer) error {
	terms, post, postOff := c.Index.Slabs()
	n := len(terms)
	if len(postOff) != n+1 || len(c.Singles) != n {
		return fmt.Errorf("snapfile: inconsistent slab sizes: %d terms, %d offsets, %d singles",
			n, len(postOff), len(c.Singles))
	}

	metaSec, err := json.Marshal(c.Meta)
	if err != nil {
		return fmt.Errorf("snapfile: encoding meta: %w", err)
	}
	// The two variable-length sections are the dear ones to encode, and each
	// only reads its own input into its own buffer, so they are encoded side
	// by side when a second processor can run one.
	var forestBuf bytes.Buffer
	var forestErr error
	var origSec []byte
	par.Do(runtime.GOMAXPROCS(0), 2, func(i int) {
		if i == 0 {
			forestErr = core.WriteBinary(&forestBuf, c.Forest)
		} else if c.Original != nil {
			for _, r := range c.Original.Records {
				origSec = dataset.AppendRecord(origSec, r)
			}
		}
	})
	if forestErr != nil {
		return fmt.Errorf("snapfile: encoding forest: %w", forestErr)
	}

	sections := []struct {
		id      uint32
		payload []byte
	}{
		{secMeta, metaSec},
		{secForest, forestBuf.Bytes()},
		{secDomain, encodeInt32s(terms)},
		{secPostOff, encodeInt32s(postOff)},
		{secPostings, encodeInt32s(post)},
		{secSingles, encodeSingles(c.Singles)},
	}
	if c.Original != nil {
		sections = append(sections, struct {
			id      uint32
			payload []byte
		}{secOriginal, origSec})
	}

	// Header + section table, with payload offsets laid out 8-aligned.
	var head bytes.Buffer
	head.WriteString(magic)
	putU32(&head, formatVersion)
	putU32(&head, uint32(len(sections)))
	putU32(&head, 0)
	off := uint64(headerSize + len(sections)*tableEntrySize)
	off = alignUp(off)
	for _, s := range sections {
		putU32(&head, s.id)
		putU32(&head, crc32.ChecksumIEEE(s.payload))
		putU64(&head, off)
		putU64(&head, uint64(len(s.payload)))
		off = alignUp(off + uint64(len(s.payload)))
	}
	if _, err := w.Write(head.Bytes()); err != nil {
		return err
	}

	var pad [sectionAlign]byte
	written := uint64(head.Len())
	for _, s := range sections {
		if gap := alignUp(written) - written; gap > 0 {
			if _, err := w.Write(pad[:gap]); err != nil {
				return err
			}
			written += gap
		}
		if _, err := w.Write(s.payload); err != nil {
			return err
		}
		written += uint64(len(s.payload))
	}
	return nil
}

func alignUp(off uint64) uint64 {
	return (off + sectionAlign - 1) &^ (sectionAlign - 1)
}

func putU32(b *bytes.Buffer, v uint32) {
	var s [4]byte
	binary.LittleEndian.PutUint32(s[:], v)
	b.Write(s[:])
}

func putU64(b *bytes.Buffer, v uint64) {
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], v)
	b.Write(s[:])
}

// encodeInt32s writes a slab of 4-byte integers little-endian: the domain,
// offset and posting sections.
func encodeInt32s[T ~int32](s []T) []byte {
	out := make([]byte, len(s)*int32Size)
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*int32Size:], uint32(v))
	}
	return out
}

func encodeSingles(singles []query.Estimate) []byte {
	out := make([]byte, len(singles)*estimateSize)
	for i, e := range singles {
		base := i * estimateSize
		binary.LittleEndian.PutUint64(out[base:], uint64(int64(e.Lower)))
		binary.LittleEndian.PutUint64(out[base+8:], uint64(int64(e.Upper)))
		binary.LittleEndian.PutUint64(out[base+16:], math.Float64bits(e.Expected))
	}
	return out
}
