package dataset

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"slices"
	"testing"
)

// FuzzReadIDs feeds arbitrary text to the dataset parser: no panics, and any
// accepted dataset must survive a write/read round trip unchanged (parsing
// normalizes, and WriteIDs of normalized records is canonical).
func FuzzReadIDs(f *testing.F) {
	f.Add([]byte("1 2 3\n4 5\n"))
	f.Add([]byte("  7 7 5  \n\n-4 0 9\n"))
	f.Add([]byte("2147483647 -2147483648\n"))
	f.Add([]byte("9999999999\n")) // beyond int32
	f.Add([]byte("1 x\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadIDs(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, r := range d.Records {
			if !r.IsNormalized() {
				t.Fatalf("record %d not normalized: %v", i, r)
			}
		}
		var enc bytes.Buffer
		if err := WriteIDs(&enc, d); err != nil {
			t.Fatal(err)
		}
		again, err := ReadIDs(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded dataset rejected: %v", err)
		}
		if len(again.Records) != len(d.Records) {
			t.Fatalf("round trip changed record count: %d vs %d", len(again.Records), len(d.Records))
		}
		for i := range d.Records {
			if !again.Records[i].Equal(d.Records[i]) {
				t.Fatalf("round trip changed record %d: %v vs %v", i, again.Records[i], d.Records[i])
			}
		}
	})
}

// FuzzBinaryRecordReader feeds arbitrary bytes to the spill-file codec: no
// panics, and whatever decodes must be a strictly increasing record that
// re-encodes and decodes to the same terms.
func FuzzBinaryRecordReader(f *testing.F) {
	var seed bytes.Buffer
	w := NewBinaryRecordWriter(&seed)
	for _, r := range []Record{NewRecord(1, 5, 9), NewRecord(-3, 0, 2), {}} {
		if err := w.Write(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{0x00})
	f.Add([]byte{0x03, 0x01})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rr := NewBinaryRecordReader(bytes.NewReader(data))
		var decoded []Record
		for {
			rec, err := rr.Next(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				return // malformed tail: fine, as long as nothing panicked
			}
			if !rec.IsNormalized() {
				t.Fatalf("decoder produced unnormalized record %v", rec)
			}
			decoded = append(decoded, rec)
		}
		var enc bytes.Buffer
		w := NewBinaryRecordWriter(&enc)
		for _, r := range decoded {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		rr = NewBinaryRecordReader(bytes.NewReader(enc.Bytes()))
		for i := 0; ; i++ {
			rec, err := rr.Next(nil)
			if err == io.EOF {
				if i != len(decoded) {
					t.Fatalf("round trip lost records: %d of %d", i, len(decoded))
				}
				break
			}
			if err != nil {
				t.Fatalf("round trip failed at record %d: %v", i, err)
			}
			if !rec.Equal(decoded[i]) {
				t.Fatalf("round trip changed record %d", i)
			}
		}
	})
}

// FuzzDenseDomainID reads the input as little-endian int32 terms, normalizes
// them into a domain, and requires DenseDomain.ID to agree with a binary
// search on every term, its neighbours and both int32 ends. The terms are
// also cut into records of up to four terms (the first byte picks the
// width) and built through NewDenseDomain, whose terms must be the
// normalized list: through its presence table or its sort, whichever the
// span picks.
func FuzzDenseDomainID(f *testing.F) {
	le := func(terms ...int32) []byte {
		var b []byte
		for _, t := range terms {
			b = binary.LittleEndian.AppendUint32(b, uint32(t))
		}
		return b
	}
	f.Add([]byte{})
	f.Add([]byte{7, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0x7f, 0xfb, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 0, 1, 0, 0})
	f.Add(le(-3, 4, -3))                                          // 8 ids, 3 terms: a presence table
	f.Add(le(-3, 5))                                              // 9 ids, 2 terms: sorted
	f.Add(le(math.MinInt32, math.MinInt32+5, math.MinInt32+1))    // the low end, a table
	f.Add(le(math.MaxInt32, math.MaxInt32-6, math.MaxInt32-2))    // the high end, a table
	f.Add(le(math.MaxInt32, -1, math.MinInt32, 0, math.MaxInt32)) // both ends, sorted
	for _, terms := range [][]Term{spanTight, spanWide} {         // one-id buckets, two-id buckets
		var ids []int32
		for _, t := range terms {
			ids = append(ids, int32(t))
		}
		f.Add(le(ids...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		terms := make([]Term, len(data)/4)
		for i := range terms {
			terms[i] = Term(int32(binary.LittleEndian.Uint32(data[4*i:])))
		}
		want := NewRecord(terms...)
		checkIDs(t, want)

		width := 1
		if len(data) > 0 {
			width += int(data[0] % 4)
		}
		var records []Record
		for i := 0; i < len(terms); i += width {
			records = append(records, NewRecord(terms[i:min(i+width, len(terms))]...))
		}
		if got := NewDenseDomain(records).Terms(); !slices.Equal(got, want) {
			t.Fatalf("NewDenseDomain over %d records: terms %v, want %v", len(records), got, want)
		}
	})
}
