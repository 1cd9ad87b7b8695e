package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Delta-varint record framing: each record is a uvarint length followed by
// its terms, the first absolute (as its uint32 bit pattern, so negative input
// terms survive) and every subsequent term as the gap to its predecessor —
// always ≥ 1 for a normalized record. EncodeRecord and DecodeRecordTerms are
// the one codec of that layout: the streaming engine's spill files frame it
// standalone (BinaryRecordWriter/BinaryRecordReader), so shard files can be
// written and re-read record by record with bounded memory, and the
// published binary format (internal/core) embeds it for every chunk record.

// EncodeRecord emits one normalized record through put: its length, then its
// delta-encoded terms.
func EncodeRecord(put func(uint64) error, r Record) error {
	if err := put(uint64(len(r))); err != nil {
		return err
	}
	prev := Term(0)
	for i, t := range r {
		v := uint64(uint32(t))
		if i > 0 {
			// Gaps are computed in 64 bits: between int32 terms they can
			// exceed the int32 range (negative first terms).
			v = uint64(int64(t) - int64(prev))
		}
		if err := put(v); err != nil {
			return err
		}
		prev = t
	}
	return nil
}

// DecodeRecordTerms reads the n delta-encoded terms of one record through
// get and appends them to dst. The caller has read the length n and bounded
// it. A stream that ends inside the terms surfaces as io.ErrUnexpectedEOF.
func DecodeRecordTerms(get func() (uint64, error), n uint64, dst Record) (Record, error) {
	var cur int64
	for i := uint64(0); i < n; i++ {
		v, err := get()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("record term %d: %w", i, err)
		}
		// The first term is a uint32 bit pattern and a gap between int32
		// terms spans at most the uint32 range, so one bound covers both;
		// the sum is then checked in 64 bits.
		if v > 1<<32-1 {
			return nil, fmt.Errorf("record term %d: %d overflows 32 bits", i, v)
		}
		switch {
		case i == 0:
			cur = int64(int32(uint32(v)))
		case v == 0:
			return nil, errors.New("zero gap: record not strictly increasing")
		default:
			if cur += int64(v); cur > 1<<31-1 {
				return nil, fmt.Errorf("term %d overflows", cur)
			}
		}
		dst = append(dst, Term(cur))
	}
	return dst, nil
}

// BinaryRecordWriter streams records into a spill file.
type BinaryRecordWriter struct {
	bw      *bufio.Writer
	scratch [binary.MaxVarintLen64]byte
}

// NewBinaryRecordWriter returns a writer over w.
func NewBinaryRecordWriter(w io.Writer) *BinaryRecordWriter {
	return &BinaryRecordWriter{bw: bufio.NewWriter(w)}
}

func (rw *BinaryRecordWriter) put(v uint64) error {
	n := binary.PutUvarint(rw.scratch[:], v)
	_, err := rw.bw.Write(rw.scratch[:n])
	return err
}

// Write emits one normalized record.
func (rw *BinaryRecordWriter) Write(r Record) error { return EncodeRecord(rw.put, r) }

// Flush drains the writer's buffer.
func (rw *BinaryRecordWriter) Flush() error { return rw.bw.Flush() }

// BinaryRecordReader streams records back out of a spill file.
type BinaryRecordReader struct {
	br *bufio.Reader
}

// NewBinaryRecordReader returns a reader over r.
func NewBinaryRecordReader(r io.Reader) *BinaryRecordReader {
	return &BinaryRecordReader{br: bufio.NewReader(r)}
}

func (rr *BinaryRecordReader) get() (uint64, error) { return binary.ReadUvarint(rr.br) }

// Next returns the next record, reusing buf's storage when it has capacity.
// It returns io.EOF exactly at a clean end of stream; a record truncated
// mid-way surfaces as io.ErrUnexpectedEOF.
func (rr *BinaryRecordReader) Next(buf Record) (Record, error) {
	n, err := rr.get()
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: record length: %w", err)
	}
	if n > 1<<28 {
		return nil, fmt.Errorf("dataset: implausible record length %d", n)
	}
	r, err := DecodeRecordTerms(rr.get, n, buf[:0])
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return r, nil
}
