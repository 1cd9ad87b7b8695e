package dataset

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestStreamReaderMatchesReadIDs(t *testing.T) {
	input := "3 1 2\n\n  7 7 5  \n-4 0 9\n"
	d, err := ReadIDs(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	sr := NewStreamReader(strings.NewReader(input))
	var streamed []Record
	for {
		r, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, r)
	}
	if len(streamed) != len(d.Records) {
		t.Fatalf("stream got %d records, ReadIDs %d", len(streamed), len(d.Records))
	}
	for i := range streamed {
		if !streamed[i].Equal(d.Records[i]) {
			t.Errorf("record %d: %v vs %v", i, streamed[i], d.Records[i])
		}
	}
}

func TestStreamReaderBadTermLineNumber(t *testing.T) {
	sr := NewStreamReader(strings.NewReader("1 2\n\nx\n"))
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := sr.Next()
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want line-3 error, got %v", err)
	}
}

func TestStreamWriterMatchesWriteIDs(t *testing.T) {
	d := FromRecords([]Record{NewRecord(3, 1, 2), NewRecord(-7, 9), NewRecord(0)})
	var want bytes.Buffer
	if err := WriteIDs(&want, d); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	sw := NewStreamWriter(&got)
	for _, r := range d.Records {
		if err := sw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("streamed %q != WriteIDs %q", got.String(), want.String())
	}
}

func TestBinaryRecordRoundTrip(t *testing.T) {
	records := []Record{
		NewRecord(0),
		NewRecord(5, 9, 1000000),
		NewRecord(-2147483648, 2147483647), // full int32 span: gap needs 32 bits
		NewRecord(-5, -4, -3, 0, 7),
		{},
	}
	var buf bytes.Buffer
	w := NewBinaryRecordWriter(&buf)
	for _, r := range records {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rr := NewBinaryRecordReader(bytes.NewReader(buf.Bytes()))
	var scratch Record
	for i, want := range records {
		got, err := rr.Next(scratch)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("record %d: got %v want %v", i, got, want)
		}
		scratch = got
	}
	if _, err := rr.Next(scratch); err != io.EOF {
		t.Fatalf("want io.EOF after last record, got %v", err)
	}
}

// encodeRecord is the closure-based encoder AppendRecord replaced, kept as
// its reference: it emits the record's length and delta-encoded terms
// through put, one varint at a time.
func encodeRecord(put func(uint64) error, r Record) error {
	if err := put(uint64(len(r))); err != nil {
		return err
	}
	prev := Term(0)
	for i, t := range r {
		v := uint64(uint32(t))
		if i > 0 {
			v = uint64(int64(t) - int64(prev))
		}
		if err := put(v); err != nil {
			return err
		}
		prev = t
	}
	return nil
}

// AppendRecord must emit encodeRecord's bytes behind whatever dst holds, on
// empty records, negative first terms (their uint32 bit pattern) and the
// int32 extremes, whose gaps need all 32 bits.
func TestAppendRecordMatchesEncodeRecord(t *testing.T) {
	records := []Record{
		{},
		NewRecord(0),
		NewRecord(-1),
		NewRecord(-5, 3),
		NewRecord(-7, -5, -4, 0, 7),
		NewRecord(math.MinInt32),
		NewRecord(math.MaxInt32),
		NewRecord(math.MinInt32, math.MaxInt32),
		NewRecord(math.MinInt32, -1, 0, math.MaxInt32),
		NewRecord(5, 127, 128, 16383, 16384, 1000000),
		{},
	}
	var want, got []byte
	for _, r := range records {
		_ = encodeRecord(func(v uint64) error { // cannot fail
			want = binary.AppendUvarint(want, v)
			return nil
		}, r)
		got = AppendRecord(got, r)
		if !bytes.Equal(got, want) {
			t.Fatalf("after record %v: AppendRecord % x, encodeRecord % x", r, got, want)
		}
	}
}

func TestBinaryRecordTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryRecordWriter(&buf)
	if err := w.Write(NewRecord(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		rr := NewBinaryRecordReader(bytes.NewReader(full[:cut]))
		if _, err := rr.Next(nil); err == nil {
			t.Fatalf("cut at %d: truncated record decoded without error", cut)
		}
	}
}

func TestRecordSlab(t *testing.T) {
	// Dense ids whose values and gaps need one, two and three varint bytes.
	records := []Record{
		{},
		NewRecord(0),
		NewRecord(1, 2, 3),
		NewRecord(5, 127, 128, 16383, 16384, 20000),
		NewRecord(300),
		NewRecord(0, 20000),
	}
	var slab RecordSlab
	var offs []int
	for _, r := range records {
		offs = append(offs, len(slab))
		slab = slab.Append(r)
	}
	// The slab is the spill files' layout, unframed.
	var spill bytes.Buffer
	w := NewBinaryRecordWriter(&spill)
	for _, r := range records {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slab, spill.Bytes()) {
		t.Fatalf("slab % x != spill % x", []byte(slab), spill.Bytes())
	}
	probes := []Term{-1, 0, 1, 2, 3, 4, 5, 126, 127, 128, 129, 300, 16383, 16384, 19999, 20000, 20001}
	for i, r := range records {
		end := len(slab)
		if i+1 < len(offs) {
			end = offs[i+1]
		}
		if got := slab.End(offs[i]); got != end {
			t.Errorf("record %d: End = %d, want %d", i, got, end)
		}
		for _, p := range probes {
			if got := slab.Has(offs[i], p); got != r.Contains(p) {
				t.Errorf("record %d %v: Has(%d) = %v", i, r, p, got)
			}
		}
		counts := make([]int32, 20001)
		counts[7] = 2
		slab.Count(offs[i], counts)
		want := make([]int32, len(counts))
		want[7] = 2
		for _, term := range r {
			want[term]++
		}
		if !slices.Equal(counts, want) {
			t.Errorf("record %d %v: Count disagrees", i, r)
		}
	}
}
