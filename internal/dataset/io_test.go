package dataset

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadWriteIDsRoundTrip(t *testing.T) {
	in := FromRecords([]Record{
		NewRecord(1, 2, 3),
		NewRecord(42),
		NewRecord(7, 9),
	})
	var buf bytes.Buffer
	if err := WriteIDs(&buf, in); err != nil {
		t.Fatalf("WriteIDs: %v", err)
	}
	out, err := ReadIDs(&buf)
	if err != nil {
		t.Fatalf("ReadIDs: %v", err)
	}
	if out.Len() != in.Len() {
		t.Fatalf("round trip length %d, want %d", out.Len(), in.Len())
	}
	for i := range in.Records {
		if !out.Records[i].Equal(in.Records[i]) {
			t.Errorf("record %d: got %v, want %v", i, out.Records[i], in.Records[i])
		}
	}
}

func TestReadIDsSkipsBlankLinesAndNormalizes(t *testing.T) {
	d, err := ReadIDs(strings.NewReader("3 1 3\n\n   \n2\n"))
	if err != nil {
		t.Fatalf("ReadIDs: %v", err)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if !d.Records[0].Equal(NewRecord(1, 3)) {
		t.Errorf("record 0 = %v, want {1, 3}", d.Records[0])
	}
}

func TestReadIDsRejectsGarbage(t *testing.T) {
	if _, err := ReadIDs(strings.NewReader("1 two 3\n")); err == nil {
		t.Error("ReadIDs accepted a non-integer token")
	}
}

func TestReadWriteNamesRoundTrip(t *testing.T) {
	dict := NewDictionary()
	in := FromRecords([]Record{
		dict.InternRecord("madonna", "flu", "viagra"),
		dict.InternRecord("ikea"),
	})
	var buf bytes.Buffer
	if err := WriteNames(&buf, in, dict); err != nil {
		t.Fatalf("WriteNames: %v", err)
	}
	out, err := ReadNames(&buf, dict)
	if err != nil {
		t.Fatalf("ReadNames: %v", err)
	}
	if out.Len() != 2 {
		t.Fatalf("Len = %d, want 2", out.Len())
	}
	for i := range in.Records {
		if !out.Records[i].Equal(in.Records[i]) {
			t.Errorf("record %d: got %v, want %v", i, out.Records[i], in.Records[i])
		}
	}
}

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a == b {
		t.Fatal("distinct names share an ID")
	}
	if got := d.Intern("alpha"); got != a {
		t.Errorf("re-intern gave %d, want %d", got, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if got, ok := d.Lookup("beta"); !ok || got != b {
		t.Errorf("Lookup(beta) = %d,%v", got, ok)
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Error("Lookup(gamma) found a missing name")
	}
	if got := d.Name(a); got != "alpha" {
		t.Errorf("Name = %q", got)
	}
	if got := d.Name(Term(999)); got != "#999" {
		t.Errorf("Name(unknown) = %q", got)
	}
	names := d.Names(NewRecord(a, b))
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Errorf("Names = %v", names)
	}
}
