package breach

import (
	"bytes"
	"testing"

	"disasso/internal/anonymity"
	"disasso/internal/core"
	"disasso/internal/dataset"
)

// FuzzBreachDetector drives random small publications through the detector,
// the oracle and the repair: the detector must never panic, must agree with
// the brute-force oracle on every pair the oracle can afford to enumerate,
// the incremental repair must publish the reference rescan's exact bytes,
// and the repaired publication must audit clean while still passing the
// independent k^m verifier.
func FuzzBreachDetector(f *testing.F) {
	f.Add([]byte{2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3}) // k = 4 and 4 records: skips
	f.Add([]byte{3, 3, 9, 9, 9, 9, 8, 8, 8, 7, 7, 6, 5, 4, 3, 2, 1, 0, 0, 1, 9, 9})
	f.Add([]byte{4, 0, 5, 5, 5, 5, 5, 5, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3})
	// k = 2 and 10 records over terms 1–5: two clusters holding five
	// breaches, so the oracle cross-check and the repair both run.
	f.Add([]byte{0, 2, 1, 1, 2, 2, 1, 2, 3, 1, 1, 3, 1, 2, 3, 1, 1, 2, 2, 3, 4, 5, 1, 4, 5, 1, 3, 4, 0, 5, 2, 1, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			t.Skip()
		}
		k := 2 + int(data[0])%3
		maxCluster := k + 2 + int(data[1])%4
		var records []dataset.Record
		for i := 2; i < len(data); {
			length := 1 + int(data[i])%4
			i++
			terms := make([]dataset.Term, 0, length)
			for j := 0; j < length && i < len(data); j++ {
				terms = append(terms, dataset.Term(data[i]%11))
				i++
			}
			if r := dataset.NewRecord(terms...); len(r) > 0 {
				records = append(records, r)
			}
			if len(records) >= 48 {
				break // keep the oracle's enumeration spaces affordable
			}
		}
		if len(records) < 2*k {
			t.Skip()
		}
		d := dataset.FromRecords(records)
		opts := core.Options{K: k, M: 2, MaxClusterSize: maxCluster, Parallel: 1, Seed: uint64(len(data))}
		a, err := core.Anonymize(d, opts)
		if err != nil {
			t.Skip()
		}
		for i, n := range a.Clusters {
			brs := core.NodeBreaches(n, a.K) // must not panic
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("cluster %d: detector/oracle divergence: %v", i, r)
					}
				}()
				crossCheckNode(n, a.K, brs)
			}()
		}
		repaired, got := safePublish(t, d, opts, false)
		if _, want := safePublish(t, d, opts, true); !bytes.Equal(got, want) {
			t.Fatal("incremental repair and the reference rescan publish different bytes")
		}
		if rep := Audit(repaired); !rep.Clean() {
			t.Fatalf("repaired publication still has %d breaches", len(rep.Findings))
		}
		if vr := anonymity.Verify(repaired); !vr.OK() {
			t.Fatalf("repaired publication fails the verifier: %v", vr.Err())
		}
	})
}
