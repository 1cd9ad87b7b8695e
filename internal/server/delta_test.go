package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
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
	// otherwise some delta must re-anonymize fewer than all shards.
	if !sawIncremental && !allFullRepublish {
		t.Error("no delta ever took the incremental path (dirty < total); the test exercises nothing")
	}
}

// TestServerStreamedLineage drives a stream=1 publication through its whole
// life on a persistent server: metrics equal an in-memory publish's at the
// cut the budget derived; each append and remove serves what a from-scratch
// publish at that cut serves and keeps streamed and the cut; and after a
// restart a delta still equals scratch.
func TestServerStreamedLineage(t *testing.T) {
	dir := t.TempDir()
	text, d := testDataset(t, 13, 400, 30, 5)
	logical := d.Records
	ts1 := httptest.NewServer(New(Options{DataDir: dir}))
	client := ts1.Client()
	base := ts1.URL + "/v1/datasets/str"

	var info DatasetInfo
	do(t, client, "POST", base+"?k=3&m=2&seed=8&stream=1&membudget=4K", text, http.StatusCreated, &info)
	if !info.Streamed || info.ShardRecords <= 0 || info.ShardRecords >= len(logical) {
		t.Fatalf("streamed publish info = %+v, want streamed with a cut below %d records", info, len(logical))
	}
	cut := info.ShardRecords
	opts := core.Options{K: 3, M: 2, Seed: 8, MaxShardRecords: cut}
	checkServedAgainst(t, client, base, logical, opts, "initial")

	var got, want MetricsResponse
	do(t, client, "GET", base+"/metrics", "", http.StatusOK, &got)
	do(t, client, "POST", fmt.Sprintf("%s/v1/datasets/mem?k=3&m=2&seed=8&shardrecords=%d", ts1.URL, cut), text, http.StatusCreated, nil)
	do(t, client, "GET", ts1.URL+"/v1/datasets/mem/metrics", "", http.StatusOK, &want)
	if got != want {
		t.Errorf("streamed metrics %+v != in-memory metrics %+v", got, want)
	}

	delta := func(client *http.Client, base, op string, records []dataset.Record, version int) {
		t.Helper()
		var dr DeltaResponse
		do(t, client, "POST", base+"/"+op, renderRecords(records), http.StatusOK, &dr)
		if op == "remove" {
			logical = removeFirst(t, logical, records)
		} else {
			logical = append(logical, records...)
		}
		if dr.Version != version || !dr.Streamed || dr.ShardRecords != cut {
			t.Fatalf("%s: info %+v, want version %d, streamed, cut %d", op, dr.DatasetInfo, version, cut)
		}
		checkServedAgainst(t, client, base, logical, opts, fmt.Sprintf("%s to version %d", op, version))
	}
	delta(client, base, "append", []dataset.Record{{1, 2, 3}, {4, 31}, {2, 5}}, 2)
	delta(client, base, "remove", []dataset.Record{logical[7], logical[200]}, 3)
	ts1.Close()

	srv2 := New(Options{DataDir: dir})
	if rep, err := srv2.Recover(); err != nil || len(rep.Loaded) != 2 || len(rep.Skipped) != 0 {
		t.Fatalf("recovery report = %+v, %v", rep, err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	delta(ts2.Client(), ts2.URL+"/v1/datasets/str", "append", []dataset.Record{{3, 7}, {1, 2, 3}}, 4)
}

// TestServerDeltaErrors covers the delta error surface: unknown datasets,
// removals of absent records (state must survive untouched), and malformed
// bodies.
func TestServerDeltaErrors(t *testing.T) {
	text, _ := testDataset(t, 4, 120, 15, 4)
	srv := httptest.NewServer(New(Options{}))
	defer srv.Close()
	client := srv.Client()

	do(t, client, "POST", srv.URL+"/v1/datasets/ghost/append", "1 2\n", http.StatusNotFound, nil)
	do(t, client, "POST", srv.URL+"/v1/datasets/ghost/remove", "1 2\n", http.StatusNotFound, nil)

	do(t, client, "POST", srv.URL+"/v1/datasets/ds?k=3&m=2&shardrecords=60", text, http.StatusCreated, nil)
	var before StatsResponse
	do(t, client, "GET", srv.URL+"/v1/datasets/ds/stats", "", http.StatusOK, &before)

	// Absent removal: 409, and the whole delta is rejected atomically.
	var e ErrorResponse
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

// liveOptions are the options of the end-to-end benchmark's live
// publication: k=5, m=2, seed 1 and a 2,000-record shard cut, which plans
// the live records as a 150-deep chain of 151 shards.
var liveOptions = core.Options{K: 5, M: 2, Seed: 1, MaxShardRecords: 2_000}

// liveRecords returns the end-to-end benchmark's publish-workload inputs:
// the first 20,000 of 20,260 Quest records (seed 1, 5k-term domain, average
// length 10), which the live publication holds, and its two held-out delta
// batches: the first 40 records generated past that prefix that repeat
// neither a published record nor each other, 20 to a batch.
func liveRecords(tb testing.TB) (published []dataset.Record, batches [2][]dataset.Record) {
	tb.Helper()
	cfg := quest.DefaultConfig()
	cfg.NumTransactions, cfg.DomainSize, cfg.AvgTransLen, cfg.Seed = 20_260, 5_000, 10, 1
	g, err := quest.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	all := g.Generate().Records
	published = all[:20_000]
	seen := make(map[string]bool, len(published))
	for _, r := range published {
		seen[r.Key()] = true
	}
	var held []dataset.Record
	for _, r := range all[len(published):] {
		if k := r.Key(); !seen[k] && len(held) < 40 {
			seen[k] = true
			held = append(held, r)
		}
	}
	if len(held) < 40 {
		tb.Fatalf("only %d distinct held-out records, need 40", len(held))
	}
	return published, [2][]dataset.Record{held[:20], held[20:]}
}

// liveDeltas are the delta sequences TestApplyLiveDirtyShards and
// BenchmarkApplyLive apply: the publish workload's append and removal of
// each held-out batch, and an append and removal of a copy of published
// record 0. The removal drops the earliest occurrence, the original, so
// after one round the copy at the end stands in for it.
func liveDeltas(published []dataset.Record, batches [2][]dataset.Record) []struct {
	name   string
	deltas []core.Delta
} {
	return []struct {
		name   string
		deltas []core.Delta
	}{
		{"batch=20", []core.Delta{
			{Append: batches[0]}, {Remove: batches[0]},
			{Append: batches[1]}, {Remove: batches[1]},
		}},
		{"batch=1", []core.Delta{{Append: published[:1]}, {Remove: published[:1]}}},
	}
}

// TestApplyLiveDirtyShards pins how many shards each live delta
// re-anonymizes: 20 for either move of the first held-out batch, 46 for
// either move of the second, whose flip high in the chain really changes
// that many, and 1 for either move of a copy of record 0. Each delta's bytes
// must equal a from-scratch republish. The counts are not checked where
// Apply reports FullRepublish, as the republish_scratch oracle build does.
func TestApplyLiveDirtyShards(t *testing.T) {
	if testing.Short() {
		t.Skip("publishes 20k records")
	}
	published, batches := liveRecords(t)
	opts := liveOptions
	opts.Parallel = 2
	_, st, err := core.AnonymizeWithState(dataset.FromRecords(published), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumShards() != 151 {
		t.Fatalf("live plan has %d shards, want 151", st.NumShards())
	}
	encode := func(a *core.Anonymized) []byte {
		var buf bytes.Buffer
		if err := core.WriteBinary(&buf, a); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := map[string][]int{"batch=20": {20, 20, 46, 46}, "batch=1": {1, 1}}
	for _, c := range liveDeltas(published, batches) {
		for i, delta := range c.deltas {
			anon, next, stats, err := st.Apply(delta)
			if err != nil {
				t.Fatalf("%s delta %d: %v", c.name, i, err)
			}
			if stats.TotalShards != 151 || (!stats.FullRepublish && stats.DirtyShards != want[c.name][i]) {
				t.Errorf("%s delta %d dirtied %d of %d shards, want %d of 151",
					c.name, i, stats.DirtyShards, stats.TotalShards, want[c.name][i])
			}
			scratch, err := core.Anonymize(dataset.FromRecords(next.Records()), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encode(anon), encode(scratch)) {
				t.Fatalf("%s delta %d differs from a from-scratch republish", c.name, i)
			}
			st = next
		}
	}
}

// BenchmarkApplyLive times core.RepubState.Apply alone on the live
// publication (see liveRecords and liveOptions), each delta applied to the
// state the one before it returned, as disassod chains them. ms/delta is
// the mean time of one Apply, dirty-shards the most shards one delta
// re-anonymized.
func BenchmarkApplyLive(b *testing.B) {
	published, batches := liveRecords(b)
	_, st, err := core.AnonymizeWithState(dataset.FromRecords(published), liveOptions)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range liveDeltas(published, batches) {
		b.Run(c.name, func(b *testing.B) {
			cur, dirty := st, 0
			for i := 0; i < b.N; i++ {
				for _, delta := range c.deltas {
					_, next, stats, err := cur.Apply(delta)
					if err != nil {
						b.Fatal(err)
					}
					cur, dirty = next, max(dirty, stats.DirtyShards)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*len(c.deltas)), "ms/delta")
			b.ReportMetric(float64(dirty), "dirty-shards")
		})
	}
}

// BenchmarkServerDelta times deltas against the end-to-end benchmark's
// live publication (see liveRecords and liveOptions) on a persistent
// server, driven through ServeHTTP. Each iteration is one append and one
// remove of the same batch:
//
//   - batch=20: the first held-out batch;
//   - batch=1: a copy of published record 0, which dirties a single shard.
//
// ms/delta is the mean handler time of one append or remove, dirty-shards
// the most shards one delta re-anonymized.
func BenchmarkServerDelta(b *testing.B) {
	published, batches := liveRecords(b)
	s := New(Options{DataDir: b.TempDir()})
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
	}{{"batch=20", batches[0]}, {"batch=1", published[:1]}} {
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

// BenchmarkServerPublish times whole publishes of the live records (see
// liveRecords) on a persistent server, driven through ServeHTTP, as the
// end-to-end benchmark's publish workload sends them:
//
//   - global: k=5, m=2, seed=1, replace=1, one global shard;
//   - stream: the same with stream=1&membudget=1M, whose cut the budget
//     derives.
//
// ms/publish is the mean handler time of one publish; retained-MiB is the
// heap still allocated after the last publish and a forced collection,
// while the server holds the publication.
func BenchmarkServerPublish(b *testing.B) {
	published, _ := liveRecords(b)
	body := renderRecords(published)
	for _, c := range []struct{ name, params string }{
		{"global", ""},
		{"stream", "&stream=1&membudget=1M"},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := New(Options{DataDir: b.TempDir()})
			path := "/v1/datasets/live?k=5&m=2&seed=1&replace=1" + c.params
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
				if rec.Code != http.StatusCreated {
					b.Fatalf("POST %s: status %d; body: %s", path, rec.Code, rec.Body.Bytes())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/publish")
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "retained-MiB")
			runtime.KeepAlive(s)
		})
	}
}
