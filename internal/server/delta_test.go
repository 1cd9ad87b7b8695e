package server

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/query"
	"disasso/internal/quest"
)

// renderRecords writes records in the upload/delta text format.
func renderRecords(records []dataset.Record) string {
	var b strings.Builder
	for _, r := range records {
		for j, term := range r {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", term)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// removeFirst drops the first occurrence of each removed record from the
// logical list — the bag semantics the delta endpoints promise.
func removeFirst(t *testing.T, logical []dataset.Record, removes []dataset.Record) []dataset.Record {
	t.Helper()
	out := make([]dataset.Record, 0, len(logical))
	out = append(out, logical...)
	for _, rm := range removes {
		found := false
		for i, r := range out {
			if r.Equal(rm) {
				out = append(out[:i], out[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("test generator removed absent record %v", rm)
		}
	}
	return out
}

// checkServedAgainst cross-checks the served dataset against a from-scratch
// publication of the expected logical records: summary plus a battery of
// support queries must agree bit for bit.
func checkServedAgainst(t *testing.T, client *http.Client, base string, logical []dataset.Record, opts core.Options, tag string) {
	t.Helper()
	want, err := core.Anonymize(dataset.FromRecords(logical), opts)
	if err != nil {
		t.Fatalf("%s: reference publish: %v", tag, err)
	}
	var stats StatsResponse
	do(t, client, "GET", base+"/stats", "", http.StatusOK, &stats)
	if stats.Summary != want.Stats() {
		t.Fatalf("%s: served summary %+v != from-scratch summary %+v", tag, stats.Summary, want.Stats())
	}
	rng := rand.New(rand.NewPCG(77, 5))
	itemsets := make([]dataset.Record, 0, 40)
	for term := dataset.Term(0); term < 12; term++ {
		itemsets = append(itemsets, dataset.NewRecord(term))
	}
	for q := 0; q < 25; q++ {
		terms := make([]dataset.Term, 2+q%2)
		for j := range terms {
			terms[j] = dataset.Term(rng.IntN(30))
		}
		itemsets = append(itemsets, dataset.NewRecord(terms...))
	}
	for _, s := range itemsets {
		parts := make([]string, len(s))
		for i, term := range s {
			parts[i] = fmt.Sprintf("%d", term)
		}
		var got ItemsetEstimate
		do(t, client, "GET", base+"/support?itemset="+strings.Join(parts, ","), "", http.StatusOK, &got)
		ref := query.Support(want, s)
		if got.Lower != ref.Lower || got.Upper != ref.Upper || got.Expected != ref.Expected {
			t.Fatalf("%s: itemset %v: served (%d, %d, %v) != from-scratch (%d, %d, %v)",
				tag, s, got.Lower, got.Upper, got.Expected, ref.Lower, ref.Upper, ref.Expected)
		}
	}
}

// TestServerDeltaRepublish drives append/remove republishes over HTTP and
// proves each resulting version serves exactly what a from-scratch publish of
// the same logical dataset would: identical summaries and bit-identical
// support estimates. It also checks the version chain and that small deltas
// actually take the incremental path (dirty shards < total shards).
func TestServerDeltaRepublish(t *testing.T) {
	text, d := testDataset(t, 11, 400, 30, 5)
	logical := d.Records
	opts := core.Options{K: 3, M: 2, Seed: 8, MaxShardRecords: 100}
	srv := httptest.NewServer(New(Options{}))
	defer srv.Close()
	client := srv.Client()
	base := srv.URL + "/v1/datasets/churn"

	var info DatasetInfo
	do(t, client, "POST", base+"?k=3&m=2&seed=8&shardrecords=100", text, http.StatusCreated, &info)
	if info.Version != 1 {
		t.Fatalf("initial publish version = %d, want 1", info.Version)
	}
	checkServedAgainst(t, client, base, logical, opts, "initial")

	rng := rand.New(rand.NewPCG(11, 99))
	wantVersion := 1
	sawIncremental := false
	allFullRepublish := true
	for step := 0; step < 4; step++ {
		// Remove a few random survivors.
		nRemove := 3 + rng.IntN(5)
		picked := map[int]bool{}
		var removes []dataset.Record
		for len(removes) < nRemove {
			i := rng.IntN(len(logical))
			if picked[i] {
				continue
			}
			picked[i] = true
			removes = append(removes, logical[i])
		}
		var dr DeltaResponse
		do(t, client, "POST", base+"/remove", renderRecords(removes), http.StatusOK, &dr)
		logical = removeFirst(t, logical, removes)
		wantVersion++
		if dr.Version != wantVersion {
			t.Fatalf("step %d remove: version = %d, want %d", step, dr.Version, wantVersion)
		}
		if dr.Removed != len(removes) || dr.Appended != 0 {
			t.Fatalf("step %d remove: stats %+v", step, dr)
		}
		if !dr.FullRepublish {
			allFullRepublish = false
			if dr.DirtyShards < dr.TotalShards {
				sawIncremental = true
			}
		}
		checkServedAgainst(t, client, base, logical, opts, fmt.Sprintf("step %d remove", step))

		// Append a few fresh records (wider span every third step, so new
		// terms enter the universe mid-chain).
		span := 30
		if step%3 == 2 {
			span = 40
		}
		nAppend := 3 + rng.IntN(5)
		var appends []dataset.Record
		for i := 0; i < nAppend; i++ {
			terms := make([]dataset.Term, 1+rng.IntN(4))
			for j := range terms {
				terms[j] = dataset.Term(rng.IntN(span))
			}
			appends = append(appends, dataset.NewRecord(terms...))
		}
		do(t, client, "POST", base+"/append", renderRecords(appends), http.StatusOK, &dr)
		logical = append(logical, appends...)
		wantVersion++
		if dr.Version != wantVersion {
			t.Fatalf("step %d append: version = %d, want %d", step, dr.Version, wantVersion)
		}
		if dr.Appended != len(appends) || dr.Removed != 0 {
			t.Fatalf("step %d append: stats %+v", step, dr)
		}
		if dr.Records != len(logical) {
			t.Fatalf("step %d append: served %d records, want %d", step, dr.Records, len(logical))
		}
		if !dr.FullRepublish {
			allFullRepublish = false
			if dr.DirtyShards < dr.TotalShards {
				sawIncremental = true
			}
		}
		checkServedAgainst(t, client, base, logical, opts, fmt.Sprintf("step %d append", step))
	}
	// Under the republish_scratch build tag every delta honestly reports
	// FullRepublish, so the incremental-path assertion is vacuous by design;
	// any other all-fallback run is a regression.
	if !sawIncremental && !allFullRepublish {
		t.Error("no delta ever took the incremental path (dirty < total); the test exercises nothing")
	}
}

// TestServerDeltaErrors covers the delta error surface: unknown datasets,
// streamed snapshots without retained records, removals of absent records
// (state must survive untouched), and malformed bodies.
func TestServerDeltaErrors(t *testing.T) {
	text, _ := testDataset(t, 4, 120, 15, 4)
	srv := httptest.NewServer(New(Options{TempDir: t.TempDir()}))
	defer srv.Close()
	client := srv.Client()

	do(t, client, "POST", srv.URL+"/v1/datasets/ghost/append", "1 2\n", http.StatusNotFound, nil)
	do(t, client, "POST", srv.URL+"/v1/datasets/ghost/remove", "1 2\n", http.StatusNotFound, nil)

	// Streamed publishes retain no records, so deltas are impossible — and
	// the error says how to get them.
	do(t, client, "POST", srv.URL+"/v1/datasets/str?k=3&m=2&stream=1&membudget=1K", text, http.StatusCreated, nil)
	var e ErrorResponse
	do(t, client, "POST", srv.URL+"/v1/datasets/str/append", "1 2\n", http.StatusConflict, &e)
	if !strings.Contains(e.Error, "not retained") {
		t.Errorf("streamed append error = %q", e.Error)
	}

	do(t, client, "POST", srv.URL+"/v1/datasets/ds?k=3&m=2&shardrecords=60", text, http.StatusCreated, nil)
	var before StatsResponse
	do(t, client, "GET", srv.URL+"/v1/datasets/ds/stats", "", http.StatusOK, &before)

	// Absent removal: 409, and the whole delta is rejected atomically.
	do(t, client, "POST", srv.URL+"/v1/datasets/ds/remove", "7 11 13 14\n", http.StatusConflict, &e)
	if !strings.Contains(e.Error, "not present") {
		t.Errorf("absent-removal error = %q", e.Error)
	}
	var after StatsResponse
	do(t, client, "GET", srv.URL+"/v1/datasets/ds/stats", "", http.StatusOK, &after)
	if after.Version != before.Version || after.Summary != before.Summary {
		t.Error("failed removal mutated the snapshot")
	}

	// Malformed bodies.
	do(t, client, "POST", srv.URL+"/v1/datasets/ds/append", "", http.StatusBadRequest, nil)
	do(t, client, "POST", srv.URL+"/v1/datasets/ds/append", "1 frog\n", http.StatusBadRequest, nil)
	do(t, client, "POST", srv.URL+"/v1/datasets/ds/remove", "\n\n", http.StatusBadRequest, nil)
}

// BenchmarkServerDelta times deltas against the end-to-end benchmark's
// `live` publication: the first 20,000 of 20,260 Quest records (seed 1,
// 5k-term domain, average length 10), published with k=5, m=2, seed=1 and a
// 2,000-record shard cut on a persistent server, driven through ServeHTTP.
// Each iteration is one append and one remove of the same batch:
//
//   - batch=20: the first 20 generated records past the published prefix
//     that repeat neither a published record nor each other, the
//     benchmark's first held-out batch;
//   - batch=1: a copy of published record 0, which dirties a single shard.
//
// ms/delta is the mean handler time of one append or remove, dirty-shards
// the most shards one delta re-anonymized.
func BenchmarkServerDelta(b *testing.B) {
	cfg := quest.DefaultConfig()
	cfg.NumTransactions, cfg.DomainSize, cfg.AvgTransLen, cfg.Seed = 20_260, 5000, 10, 1
	g, err := quest.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	all := g.Generate().Records
	published := all[:20_000]
	seen := make(map[string]bool, len(published))
	for _, r := range published {
		seen[renderRecords([]dataset.Record{r})] = true
	}
	var held []dataset.Record
	for _, r := range all[len(published):] {
		if len(held) == 20 {
			break
		}
		if k := renderRecords([]dataset.Record{r}); !seen[k] {
			seen[k] = true
			held = append(held, r)
		}
	}
	s := New(Options{DataDir: b.TempDir(), TempDir: b.TempDir()})
	serve := func(path, body string, status int) []byte {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rec.Code != status {
			b.Fatalf("POST %s: status %d, want %d; body: %s", path, rec.Code, status, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	serve("/v1/datasets/live?k=5&m=2&seed=1&shardrecords=2000", renderRecords(published), http.StatusCreated)
	for _, c := range []struct {
		name  string
		batch []dataset.Record
	}{{"batch=20", held}, {"batch=1", published[:1]}} {
		body := renderRecords(c.batch)
		b.Run(c.name, func(b *testing.B) {
			dirty := 0
			for i := 0; i < b.N; i++ {
				for _, op := range []string{"append", "remove"} {
					var dr DeltaResponse
					if err := json.Unmarshal(serve("/v1/datasets/live/"+op, body, http.StatusOK), &dr); err != nil {
						b.Fatal(err)
					}
					dirty = max(dirty, dr.DirtyShards)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(2*b.N), "ms/delta")
			b.ReportMetric(float64(dirty), "dirty-shards")
		})
	}
}
