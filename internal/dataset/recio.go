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
// always ≥ 1 for a normalized record. AppendRecord and its two decoders,
// DecodeRecordTerms over a reader and FillRecordTerms over a byte slice
// (which share nextTerm's term rules), are the one codec of that layout: the
// streaming engine's spill files frame it standalone
// (BinaryRecordWriter/BinaryRecordReader), so records can be written and
// re-read one by one with bounded memory, a RecordSlab holds it in memory,
// and the published binary format (internal/core) embeds it for every chunk
// record.

// AppendRecord appends the encoding of one normalized record to dst — its
// length, then its delta-encoded terms — and returns the extended slice.
func AppendRecord(dst []byte, r Record) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	prev := Term(0)
	for i, t := range r {
		v := uint64(uint32(t))
		if i > 0 {
			// Gaps are computed in 64 bits: between int32 terms they can
			// exceed the int32 range (negative first terms).
			v = uint64(int64(t) - int64(prev))
		}
		dst = binary.AppendUvarint(dst, v)
		prev = t
	}
	return dst
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
		next, ok := nextTerm(i, v, cur)
		if !ok {
			return nil, termError(i, v, cur)
		}
		cur = next
		dst = append(dst, Term(cur))
	}
	return dst, nil
}

// FillRecordTerms is DecodeRecordTerms over a byte slice: it decodes the
// len(dst) delta-encoded terms at the front of src into dst and returns the
// number of bytes they took. The caller has read the record's length and
// bounded it. A src that ends inside the terms surfaces as
// io.ErrUnexpectedEOF.
func FillRecordTerms(dst Record, src []byte) (int, error) {
	var cur int64
	off := 0
	for i := range dst {
		var v uint64
		if off < len(src) && src[off] < 0x80 {
			v = uint64(src[off])
			off++
		} else {
			var n int
			if v, n = binary.Uvarint(src[off:]); n <= 0 {
				err := io.ErrUnexpectedEOF
				if n < 0 {
					err = errors.New("varint overflows 64 bits")
				}
				return 0, fmt.Errorf("record term %d: %w", i, err)
			}
			off += n
		}
		next, ok := nextTerm(uint64(i), v, cur)
		if !ok {
			return 0, termError(uint64(i), v, cur)
		}
		cur = next
		dst[i] = Term(cur)
	}
	return off, nil
}

// nextTerm applies the codec's term rules to v, the i-th varint of a record
// whose previous term is prev, and returns the term; ok is false when v
// breaks a rule, and termError says which. The first term is a uint32 bit
// pattern and a gap between int32 terms spans at most the uint32 range, so
// one bound covers both; the sum is then checked in 64 bits.
func nextTerm(i, v uint64, prev int64) (term int64, ok bool) {
	if v > 1<<32-1 {
		return 0, false
	}
	if i == 0 {
		return int64(int32(uint32(v))), true
	}
	term = prev + int64(v)
	return term, v != 0 && term <= 1<<31-1
}

// termError describes the rule that nextTerm(i, v, prev) found broken.
func termError(i, v uint64, prev int64) error {
	switch {
	case v > 1<<32-1:
		return fmt.Errorf("record term %d: %d overflows 32 bits", i, v)
	case v == 0:
		return errors.New("zero gap: record not strictly increasing")
	default:
		return fmt.Errorf("term %d overflows", prev+int64(v))
	}
}

// RecordSlab holds records back to back in the codec's layout, each
// addressed by its start offset; the streaming engine plans the records of a
// shard-plan node in one. Its readers trust the bytes, which only Append
// writes, and read the first term's bit pattern as a gap from 0, which is its
// value only for a non-negative term: a slab holds records of dense ids.
type RecordSlab []byte

// Append encodes r behind the slab's records, at offset len(s).
func (s RecordSlab) Append(r Record) RecordSlab { return AppendRecord(s, r) }

// Has reports whether the record at off holds t, decoding it only up to t:
// the terms ascend.
func (s RecordSlab) Has(off int, t Term) bool {
	n, i := s.uvarint(off)
	var cur uint64
	for ; n > 0; n-- {
		var v uint64
		v, i = s.uvarint(i)
		if cur += v; cur >= uint64(t) {
			return cur == uint64(t)
		}
	}
	return false
}

// Count adds one to counts[t] for every term t of the record at off.
func (s RecordSlab) Count(off int, counts []int32) {
	n, i := s.uvarint(off)
	var t uint64
	for ; n > 0; n-- {
		var v uint64
		v, i = s.uvarint(i)
		t += v
		counts[t]++
	}
}

// End returns the offset just past the record at off.
func (s RecordSlab) End(off int) int {
	n, i := s.uvarint(off)
	for ; n > 0; n-- {
		_, i = s.uvarint(i)
	}
	return i
}

// uvarint decodes the varint at s[i:] and returns the offset past it. It
// trusts the bytes, so unlike binary.Uvarint it checks for no overflow, and
// the compiler inlines it into the readers' loops. Over binary.Uvarint,
// BenchmarkAnonymizeStream/publish (whose slab's 220k varints are all one or
// two bytes) took 294 rather than 256 ms/op, median of 10 on a 2-vCPU VM.
func (s RecordSlab) uvarint(i int) (uint64, int) {
	var v uint64
	for shift := 0; ; shift += 7 {
		b := s[i]
		i++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, i
		}
	}
}

// BinaryRecordWriter streams records into a spill file.
type BinaryRecordWriter struct {
	bw  *bufio.Writer
	buf []byte // one record's encoding, reused
}

// NewBinaryRecordWriter returns a writer over w.
func NewBinaryRecordWriter(w io.Writer) *BinaryRecordWriter {
	return &BinaryRecordWriter{bw: bufio.NewWriter(w)}
}

// Write emits one normalized record.
func (rw *BinaryRecordWriter) Write(r Record) error {
	rw.buf = AppendRecord(rw.buf[:0], r)
	_, err := rw.bw.Write(rw.buf)
	return err
}

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
