package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/quest"
	"disasso/internal/snapfile"
)

// rawDo fetches one URL and returns the exact response bytes, for the
// byte-identity assertions a decoded comparison would weaken.
func rawDo(t *testing.T, client *http.Client, method, url, body string, status int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != status {
		t.Fatalf("%s %s: status %d, want %d; body: %s", method, url, resp.StatusCode, status, raw)
	}
	return raw
}

const persistSupportBody = `{"itemsets": [[3], [7, 12], [1, 4, 9], [2, 5]]}`

// readEndpoints captures the responses whose bytes must survive a restart.
func readEndpoints(t *testing.T, ts *httptest.Server, name string) map[string][]byte {
	t.Helper()
	client := ts.Client()
	return map[string][]byte{
		"stats":      rawDo(t, client, "GET", ts.URL+"/v1/datasets/"+name+"/stats", "", http.StatusOK),
		"support":    rawDo(t, client, "POST", ts.URL+"/v1/datasets/"+name+"/support", persistSupportBody, http.StatusOK),
		"supportGet": rawDo(t, client, "GET", ts.URL+"/v1/datasets/"+name+"/support?itemset=3,17", "", http.StatusOK),
		"metrics":    rawDo(t, client, "GET", ts.URL+"/v1/datasets/"+name+"/metrics?lo=0&hi=30", "", http.StatusOK),
		"breaches":   rawDo(t, client, "GET", ts.URL+"/v1/datasets/"+name+"/breaches", "", http.StatusOK),
	}
}

// TestRestartByteIdentical is the end-to-end restart contract: publish and
// delta-update a dataset against a persistent server, restart into a fresh
// Server over the same data directory, and require (a) recovery performed
// zero anonymization work, (b) every read endpoint answers byte-identically,
// and (c) the recovered dataset still accepts deltas.
func TestRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	text, _ := testDataset(t, 11, 400, 40, 6)
	deltaText, _ := testDataset(t, 13, 30, 40, 6)

	srv1 := New(Options{DataDir: dir})
	ts1 := httptest.NewServer(srv1)
	var info DatasetInfo
	do(t, ts1.Client(), "POST", ts1.URL+"/v1/datasets/web?k=3&m=2&seed=8&shardrecords=64", text, http.StatusCreated, &info)
	var dr DeltaResponse
	do(t, ts1.Client(), "POST", ts1.URL+"/v1/datasets/web/append", deltaText, http.StatusOK, &dr)
	if dr.Version != 2 {
		t.Fatalf("delta version = %d, want 2", dr.Version)
	}
	// A repaired (SafeDisassociation) publication rides the same restart
	// contract: its audit must come back breach-free and byte-identical from
	// the recovered snapshot.
	do(t, ts1.Client(), "POST", ts1.URL+"/v1/datasets/safeweb?k=3&m=2&seed=8&shardrecords=64&safe=1", text, http.StatusCreated, nil)
	var safeAudit BreachResponse
	do(t, ts1.Client(), "GET", ts1.URL+"/v1/datasets/safeweb/breaches", "", http.StatusOK, &safeAudit)
	if safeAudit.Report == nil || !safeAudit.Report.Clean() {
		t.Fatalf("safe publication audits dirty before restart: %+v", safeAudit.Report)
	}
	before := readEndpoints(t, ts1, "web")
	beforeSafe := readEndpoints(t, ts1, "safeweb")
	ts1.Close()

	work := core.AnonymizeWorkCount()
	srv2 := New(Options{DataDir: dir})
	rep, err := srv2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loaded) != 2 || rep.Loaded[0] != "safeweb" || rep.Loaded[1] != "web" || len(rep.Skipped) != 0 {
		t.Fatalf("recovery report = %+v", rep)
	}
	if got := core.AnonymizeWorkCount(); got != work {
		t.Fatalf("recovery ran %d shard anonymizations; recovery must be O(1) in anonymization work", got-work)
	}

	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	after := readEndpoints(t, ts2, "web")
	afterSafe := readEndpoints(t, ts2, "safeweb")
	if got := core.AnonymizeWorkCount(); got != work {
		t.Fatalf("read path ran %d shard anonymizations after recovery", got-work)
	}
	for ep, want := range before {
		if !bytes.Equal(after[ep], want) {
			t.Errorf("%s differs across restart:\n pre: %s\npost: %s", ep, want, after[ep])
		}
	}
	for ep, want := range beforeSafe {
		if !bytes.Equal(afterSafe[ep], want) {
			t.Errorf("safeweb %s differs across restart:\n pre: %s\npost: %s", ep, want, afterSafe[ep])
		}
	}

	// The listing marks the recovered snapshot cold (and mapped, where the
	// platform mmaps) without disturbing the identity fields.
	var list ListResponse
	do(t, ts2.Client(), "GET", ts2.URL+"/v1/datasets", "", http.StatusOK, &list)
	if len(list.Datasets) != 2 {
		t.Fatalf("recovered listing = %+v, want two entries", list.Datasets)
	}
	var web *ListEntry
	for i := range list.Datasets {
		if !list.Datasets[i].Cold {
			t.Fatalf("recovered %q not marked cold", list.Datasets[i].Name)
		}
		if list.Datasets[i].Name == "web" {
			web = &list.Datasets[i]
		}
	}
	if web == nil || web.Version != 2 || web.ShardRecords != 64 {
		t.Fatalf("recovered info = %+v", list.Datasets)
	}

	// Deltas still work after recovery (state rehydrates from the persisted
	// original) and keep the version chain.
	delta2, _ := testDataset(t, 17, 20, 40, 6)
	var dr2 DeltaResponse
	do(t, ts2.Client(), "POST", ts2.URL+"/v1/datasets/web/append", delta2, http.StatusOK, &dr2)
	if dr2.Version != 3 {
		t.Fatalf("post-recovery delta version = %d, want 3", dr2.Version)
	}

	// And a third incarnation sees the delta'd snapshot.
	srv3 := New(Options{DataDir: dir})
	if _, err := srv3.Recover(); err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(srv3)
	defer ts3.Close()
	var info3 StatsResponse
	do(t, ts3.Client(), "GET", ts3.URL+"/v1/datasets/web/stats", "", http.StatusOK, &info3)
	if info3.Version != 3 || info3.Records != dr2.Records {
		t.Fatalf("third incarnation stats = %+v, want version 3 with %d records", info3.DatasetInfo, dr2.Records)
	}
}

// TestRestartNegativeTerms publishes a dataset whose term ids are negative,
// which the upload format accepts, on both publish paths with a data
// directory. Both publishes must succeed, and a fresh server must recover
// both snapshots and serve their stats and a negative-term support query
// byte-identically.
func TestRestartNegativeTerms(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(23, 5))
	records := make([]dataset.Record, 200)
	for i := range records {
		terms := make([]dataset.Term, 1+rng.IntN(5))
		for j := range terms {
			terms[j] = dataset.Term(rng.IntN(30) - 15)
		}
		records[i] = dataset.NewRecord(terms...)
	}
	text := renderRecords(records)
	reads := func(ts *httptest.Server, name string) [][]byte {
		return [][]byte{
			rawDo(t, ts.Client(), "GET", ts.URL+"/v1/datasets/"+name+"/stats", "", http.StatusOK),
			rawDo(t, ts.Client(), "GET", ts.URL+"/v1/datasets/"+name+"/support?itemset=-3", "", http.StatusOK),
		}
	}

	ts1 := httptest.NewServer(New(Options{DataDir: dir}))
	do(t, ts1.Client(), "POST", ts1.URL+"/v1/datasets/neg?k=3&m=2&shardrecords=60", text, http.StatusCreated, nil)
	do(t, ts1.Client(), "POST", ts1.URL+"/v1/datasets/negstream?k=3&m=2&stream=1", text, http.StatusCreated, nil)
	before := map[string][][]byte{"neg": reads(ts1, "neg"), "negstream": reads(ts1, "negstream")}
	ts1.Close()

	srv2 := New(Options{DataDir: dir})
	rep, err := srv2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loaded) != 2 || len(rep.Skipped) != 0 {
		t.Fatalf("recovery report = %+v", rep)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	for name, want := range before {
		for i, got := range reads(ts2, name) {
			if !bytes.Equal(got, want[i]) {
				t.Errorf("%s read %d differs across restart:\n pre: %s\npost: %s", name, i, want[i], got)
			}
		}
	}
}

// TestRecoverySkipsDamage is the crash-consistency contract: leftover temp
// files are swept, corrupted snapshots, snapshots without originals and
// foreign files are skipped with a reason, and none of it stops the healthy
// datasets from loading.
func TestRecoverySkipsDamage(t *testing.T) {
	dir := t.TempDir()
	text, _ := testDataset(t, 21, 200, 30, 5)
	srv1 := New(Options{DataDir: dir})
	ts1 := httptest.NewServer(srv1)
	for _, name := range []string{"good", "hurt", "old", "bare", "torn"} {
		do(t, ts1.Client(), "POST", ts1.URL+"/v1/datasets/"+name+"?k=3&m=2", text, http.StatusCreated, nil)
	}
	ts1.Close()

	// A torn write the crash left behind, a bit-rotted snapshot, a healthy
	// snapshot stamped with format version 1 (which has no reader), a
	// healthy snapshot without an original section (as streamed publishes
	// of older releases wrote them), a snapshot cut short inside its last
	// section, a foreign file.
	tmpPath := filepath.Join(dir, "half-1234.tmp")
	if err := os.WriteFile(tmpPath, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	hurt := filepath.Join(dir, "hurt.snap")
	raw, err := os.ReadFile(hurt)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(hurt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "old.snap")
	raw, err = os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[4:], 1) // the header's format version
	if err := os.WriteFile(old, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	bare := filepath.Join(dir, "bare.snap")
	f, err := snapfile.Open(bare)
	if err != nil {
		t.Fatal(err)
	}
	meta := f.Meta()
	meta.Streamed = true
	var buf bytes.Buffer
	err = snapfile.Contents{Meta: meta, Forest: f.Forest(), Index: f.Index(), Singles: f.Singles()}.Write(&buf)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bare, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// The section table follows the 16-byte header, whose bytes 8–11 count
	// its 24-byte entries: id, CRC, then the section's offset and length.
	torn := filepath.Join(dir, "torn.snap")
	raw, err = os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	var cut uint64
	for i := range binary.LittleEndian.Uint32(raw[8:]) {
		entry := raw[16+24*i:]
		if off, length := binary.LittleEndian.Uint64(entry[8:]), binary.LittleEndian.Uint64(entry[16:]); length > 1 && off+length/2 > cut {
			cut = off + length/2
		}
	}
	if err := os.WriteFile(torn, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := New(Options{DataDir: dir})
	rep, err := srv2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loaded) != 1 || rep.Loaded[0] != "good" {
		t.Fatalf("loaded = %v, want [good]", rep.Loaded)
	}
	if len(rep.Skipped) != 6 {
		t.Fatalf("skipped = %+v, want 6 entries", rep.Skipped)
	}
	reasons := map[string]string{}
	for _, sk := range rep.Skipped {
		reasons[sk.File] = sk.Reason
	}
	if r := reasons["half-1234.tmp"]; !strings.Contains(r, "temp file removed") {
		t.Errorf("tmp skip reason = %q", r)
	}
	if r := reasons["hurt.snap"]; !strings.Contains(r, "CRC mismatch") {
		t.Errorf("corrupt skip reason = %q", r)
	}
	if r := reasons["old.snap"]; !strings.Contains(r, "unsupported format version 1") {
		t.Errorf("old-version skip reason = %q", r)
	}
	if r := reasons["bare.snap"]; !strings.Contains(r, "no original records") || !strings.Contains(r, "republish") {
		t.Errorf("original-less skip reason = %q", r)
	}
	if r := reasons["torn.snap"]; !strings.Contains(r, "overruns the file") {
		t.Errorf("truncated skip reason = %q", r)
	}
	if r := reasons["notes.txt"]; !strings.Contains(r, "not a snapshot") {
		t.Errorf("foreign skip reason = %q", r)
	}
	if _, err := os.Stat(tmpPath); !errors.Is(err, os.ErrNotExist) {
		t.Error("leftover temp file was not removed")
	}
	// The damaged, old-version, original-less and truncated artifacts stay
	// on disk.
	for _, path := range []string{hurt, old, bare, torn} {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("skipped snapshot file was removed: %v", err)
		}
	}
}

// TestDeleteRemovesArtifact: DELETE must unpublish durably — the snapshot
// file goes away, so a restart cannot resurrect the dataset.
func TestDeleteRemovesArtifact(t *testing.T) {
	dir := t.TempDir()
	text, _ := testDataset(t, 31, 150, 25, 4)
	srv := New(Options{DataDir: dir})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	do(t, ts.Client(), "POST", ts.URL+"/v1/datasets/gone?k=3&m=2", text, http.StatusCreated, nil)
	path := filepath.Join(dir, "gone.snap")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("publish did not persist: %v", err)
	}
	rawDo(t, ts.Client(), "DELETE", ts.URL+"/v1/datasets/gone", "", http.StatusNoContent)
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("DELETE left the snapshot file behind")
	}
	srv2 := New(Options{DataDir: dir})
	rep, err := srv2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loaded) != 0 {
		t.Fatalf("deleted dataset resurrected: %v", rep.Loaded)
	}
}

// TestSnapshotBuildsScheduleFree: a snapshot's summary, estimator and file
// sections are built concurrently, and that must not change a byte. The same
// global publish, stream=1 publish, append and remove, served at GOMAXPROCS 1
// (the builds run one after the other) and at 4 (side by side), must leave
// byte-equal snapshot files and stats bodies after every step. The stream
// publish's budget derives a cut above MaxClusterSize, which must not depend
// on GOMAXPROCS either. The builds share the publication, the posting index
// and the original records read-only; CI runs this test under -race
// -count=10.
func TestSnapshotBuildsScheduleFree(t *testing.T) {
	cfg := quest.DefaultConfig()
	cfg.NumTransactions, cfg.DomainSize, cfg.AvgTransLen, cfg.Seed = 1_200, 200, 6, 3
	g, err := quest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	records := g.Generate().Records
	text, delta := renderRecords(records[:1_000]), renderRecords(records[1_000:1_020])
	steps := []struct{ name, path, body string }{
		{"global", "/v1/datasets/global?k=5&m=2&seed=1", text},
		{"streamed", "/v1/datasets/streamed?k=5&m=2&seed=1&stream=1&membudget=64K", text},
		{"global", "/v1/datasets/global/append", delta},
		{"streamed", "/v1/datasets/streamed/remove", renderRecords(records[:20])},
	}
	run := func(procs int) [][]byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		dir := t.TempDir()
		s := New(Options{DataDir: dir})
		serve := func(method, path, body string) []byte {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
				t.Fatalf("GOMAXPROCS %d: %s %s: status %d; body: %s", procs, method, path, rec.Code, rec.Body.Bytes())
			}
			return rec.Body.Bytes()
		}
		var out [][]byte
		for i, st := range steps {
			body := serve("POST", st.path, st.body)
			if i == 1 {
				var info DatasetInfo
				if err := json.Unmarshal(body, &info); err != nil {
					t.Fatal(err)
				}
				if info.ShardRecords <= core.DefaultMaxClusterSize {
					t.Fatalf("GOMAXPROCS %d: the stream publish cut at %d records, want above MaxClusterSize", procs, info.ShardRecords)
				}
			}
			file, err := os.ReadFile(filepath.Join(dir, st.name+".snap"))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, file, serve("GET", "/v1/datasets/"+st.name+"/stats", ""))
		}
		return out
	}
	one, four := run(1), run(4)
	for i := range one {
		if !bytes.Equal(one[i], four[i]) {
			what := [2]string{"snapshot file", "stats body"}[i%2]
			t.Fatalf("step %d (%s): %s differs between GOMAXPROCS 1 and 4", i/2, steps[i/2].path, what)
		}
	}
}

// TestNameLocksDoNotLeak is the regression test for the per-name mutex leak:
// a publish/delete churn over many distinct names must leave the lock map
// empty once no mutation is in flight.
func TestNameLocksDoNotLeak(t *testing.T) {
	text, _ := testDataset(t, 41, 60, 20, 4)
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("churn-%d", i)
		do(t, ts.Client(), "POST", ts.URL+"/v1/datasets/"+name+"?k=3&m=2", text, http.StatusCreated, nil)
		rawDo(t, ts.Client(), "DELETE", ts.URL+"/v1/datasets/"+name, "", http.StatusNoContent)
	}
	// Misses take (and must release) the lock too.
	rawDo(t, ts.Client(), "DELETE", ts.URL+"/v1/datasets/never-was", "", http.StatusNotFound)
	srv.mu.Lock()
	n := len(srv.locks)
	srv.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d name locks leaked after churn", n)
	}
}

// failingWriter is an http.ResponseWriter whose body writes fail — a client
// that hung up mid-response.
type failingWriter struct {
	header http.Header
	status int
}

func (f *failingWriter) Header() http.Header { return f.header }
func (f *failingWriter) WriteHeader(s int)   { f.status = s }
func (f *failingWriter) Write([]byte) (int, error) {
	return 0, errors.New("client went away")
}

// TestWriteJSONErrors pins writeJSON's two failure modes apart: an
// unencodable value (a server bug) becomes a logged 500 with a JSON body,
// while a failed client write after a successful encode changes nothing and
// logs nothing.
func TestWriteJSONErrors(t *testing.T) {
	var logs strings.Builder
	srv := New(Options{Logf: func(format string, args ...any) {
		fmt.Fprintf(&logs, format+"\n", args...)
	}})

	rr := httptest.NewRecorder()
	srv.writeJSON(rr, http.StatusOK, map[string]any{"bad": make(chan int)})
	if rr.Code != http.StatusInternalServerError {
		t.Errorf("unencodable value: status %d, want 500", rr.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Errorf("unencodable value: body %q is not an error document (%v)", rr.Body.String(), err)
	}
	if !strings.Contains(logs.String(), "encoding") {
		t.Errorf("encode failure was not logged; logs: %q", logs.String())
	}

	logs.Reset()
	fw := &failingWriter{header: http.Header{}}
	srv.writeJSON(fw, http.StatusOK, map[string]string{"ok": "yes"})
	if fw.status != http.StatusOK {
		t.Errorf("failing client write: status %d, want 200 (encode succeeded)", fw.status)
	}
	if logs.Len() != 0 {
		t.Errorf("client write failure was logged as a server problem: %q", logs.String())
	}
}

// benchPersistedDir publishes the given number of random records (1–8
// terms over 300 ids), cut into 256-record shards, into a fresh data
// directory for the cold-start benchmarks. It returns the directory, the
// options and the records' text.
func benchPersistedDir(b *testing.B, records int) (string, core.Options, string) {
	b.Helper()
	rng := rand.New(rand.NewPCG(55, 0xC01D))
	rs := make([]dataset.Record, records)
	for i := range rs {
		rs[i] = dataset.NewRecord(benchTerms(rng, 300)...)
	}
	text := renderRecords(rs)
	opts := core.Options{K: 4, M: 2, Seed: 5, MaxShardRecords: 256}
	return persistBench(b, text, opts), opts, text
}

// persistBench publishes text as dataset "bench" into a fresh data
// directory and returns the directory.
func persistBench(b *testing.B, text string, opts core.Options) string {
	b.Helper()
	dir := b.TempDir()
	s := New(Options{DataDir: dir})
	sn, err := s.publish("bench", strings.NewReader(text), opts, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	sn.info.Version = 1
	if err := s.persist(sn); err != nil {
		b.Fatal(err)
	}
	return dir
}

func benchTerms(rng *rand.Rand, domain int) []dataset.Term {
	terms := make([]dataset.Term, 1+rng.IntN(8))
	for j := range terms {
		terms[j] = dataset.Term(rng.IntN(domain))
	}
	return terms
}

// BenchmarkColdStart compares the two ways a restarted server can get a
// dataset serving again: recovering the persisted snapshot (mmap + CRC +
// slab views + forest decode, no anonymization) versus rebuilding it from
// the original records (anonymize + index + estimator). The ratio is the
// point of the snapshot store. recover and rebuild run over
// benchPersistedDir's 4,000 records in 256-record shards; recover-global
// recovers the restart the end-to-end benchmark's publish workload pays per
// dataset: liveRecords' 20k Quest records published as one global shard,
// whose forest decode dominates.
func BenchmarkColdStart(b *testing.B) {
	dir, opts, text := benchPersistedDir(b, 4000)
	published, _ := liveRecords(b)
	globalDir := persistBench(b, renderRecords(published), core.Options{K: 5, M: 2, Seed: 1})
	recoverFrom := func(dir string) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := New(Options{DataDir: dir})
				rep, err := s.Recover()
				if err != nil || len(rep.Loaded) != 1 {
					b.Fatalf("recover: %v, %+v", err, rep)
				}
			}
		}
	}
	b.Run("recover", recoverFrom(dir))
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := New(Options{})
			if _, err := s.publish("bench", strings.NewReader(text), opts, false, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recover-global", recoverFrom(globalDir))
}

// BenchmarkColdServe measures serve-from-disk support latency on a freshly
// recovered snapshot, with and without the support cache — the mapped-slab
// read path.
func BenchmarkColdServe(b *testing.B) {
	dir, _, _ := benchPersistedDir(b, 4000)
	rng := rand.New(rand.NewPCG(56, 0xC01D))
	itemsets := make([]dataset.Record, 512)
	for i := range itemsets {
		itemsets[i] = dataset.NewRecord(benchTerms(rng, 300)...)
	}
	for _, cfg := range []struct {
		name string
		on   bool
	}{{"cached", true}, {"uncached", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			old := supportCacheOn
			supportCacheOn = cfg.on
			defer func() { supportCacheOn = old }()
			s := New(Options{DataDir: dir})
			if _, err := s.Recover(); err != nil {
				b.Fatal(err)
			}
			sn, ok := s.lookup("bench")
			if !ok {
				b.Fatal("recovered dataset missing")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sn.support(itemsets[i%len(itemsets)])
			}
		})
	}
}
