package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/query"
)

// testDataset renders a random dataset in the upload text format and
// returns it alongside the parsed form.
func testDataset(t *testing.T, seed uint64, n, domain, maxLen int) (string, *dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed*31+7))
	var b strings.Builder
	var records []dataset.Record
	for i := 0; i < n; i++ {
		terms := make([]dataset.Term, 1+rng.IntN(maxLen))
		for j := range terms {
			terms[j] = dataset.Term(rng.IntN(domain))
		}
		r := dataset.NewRecord(terms...)
		records = append(records, r)
		for j, term := range r {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", term)
		}
		b.WriteByte('\n')
	}
	return b.String(), dataset.FromRecords(records)
}

// do runs one request against the test server and decodes the JSON answer.
func do(t *testing.T, client *http.Client, method, url string, body string, status int, out any) {
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
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
}

// TestServerEndToEnd drives the whole analyst session over HTTP: publish an
// uploaded dataset, query supports (cross-checked against the library
// paths), sample reconstructions (validated against the bounds), fetch
// metrics and stats, then hammer the read endpoints with concurrent
// clients — the scenario CI runs under -race.
func TestServerEndToEnd(t *testing.T) {
	text, d := testDataset(t, 3, 400, 30, 5)
	srv := httptest.NewServer(New(Options{}))
	defer srv.Close()
	client := srv.Client()

	// Publish.
	var info DatasetInfo
	do(t, client, "POST", srv.URL+"/v1/datasets/web?k=3&m=2&seed=8", text, http.StatusCreated, &info)
	if info.Name != "web" || info.K != 3 || info.M != 2 || info.Records != 400 {
		t.Fatalf("publish info = %+v", info)
	}
	if info.Streamed {
		t.Fatal("in-memory publish reported as streamed")
	}

	// The reference publication this server must agree with.
	want, err := core.Anonymize(d, core.Options{K: 3, M: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}

	// Listing and stats.
	var list ListResponse
	do(t, client, "GET", srv.URL+"/v1/datasets", "", http.StatusOK, &list)
	if len(list.Datasets) != 1 || list.Datasets[0].Name != "web" {
		t.Fatalf("list = %+v", list)
	}
	var stats StatsResponse
	do(t, client, "GET", srv.URL+"/v1/datasets/web/stats", "", http.StatusOK, &stats)
	if stats.Summary != want.Stats() {
		t.Fatalf("served summary %+v != library summary %+v", stats.Summary, want.Stats())
	}

	// Batch support estimates, cross-checked against the scan path.
	reqBody, _ := json.Marshal(SupportRequest{Itemsets: [][]dataset.Term{
		{0}, {1}, {0, 1}, {2, 5, 9}, {999}, {},
	}})
	var sup SupportResponse
	do(t, client, "POST", srv.URL+"/v1/datasets/web/support", string(reqBody), http.StatusOK, &sup)
	if len(sup.Estimates) != 6 {
		t.Fatalf("got %d estimates, want 6", len(sup.Estimates))
	}
	for _, e := range sup.Estimates {
		ref := query.Support(want, dataset.NewRecord(e.Itemset...))
		if e.Lower != ref.Lower || e.Upper != ref.Upper || e.Expected != ref.Expected {
			t.Errorf("itemset %v: served (%d, %d, %v) != library (%d, %d, %v)",
				e.Itemset, e.Lower, e.Upper, e.Expected, ref.Lower, ref.Upper, ref.Expected)
		}
		if e.Lower > e.Upper || e.Expected < float64(e.Lower) || e.Expected > float64(e.Upper) {
			t.Errorf("itemset %v: served estimate violates Lower ≤ Expected ≤ Upper: %+v", e.Itemset, e)
		}
	}

	// Single-itemset GET convenience.
	var one ItemsetEstimate
	do(t, client, "GET", srv.URL+"/v1/datasets/web/support?itemset=0,1", "", http.StatusOK, &one)
	ref := query.Support(want, dataset.NewRecord(0, 1))
	if one.Lower != ref.Lower || one.Upper != ref.Upper {
		t.Errorf("GET support = %+v, want (%d, %d)", one, ref.Lower, ref.Upper)
	}

	// Reconstruction sampling: right shape, supports within served bounds.
	var recon ReconstructResponse
	do(t, client, "POST", srv.URL+"/v1/datasets/web/reconstruct", `{"samples": 2, "seed": 5}`, http.StatusOK, &recon)
	if len(recon.Datasets) != 2 {
		t.Fatalf("got %d reconstructions, want 2", len(recon.Datasets))
	}
	for i, ds := range recon.Datasets {
		if len(ds) != 400 {
			t.Fatalf("reconstruction %d has %d records, want 400", i, len(ds))
		}
		for _, e := range sup.Estimates {
			if len(e.Itemset) == 0 {
				continue
			}
			got := 0
			itemset := dataset.NewRecord(e.Itemset...)
			for _, rec := range ds {
				if dataset.NewRecord(rec...).ContainsAll(itemset) {
					got++
				}
			}
			if got < e.Lower {
				t.Errorf("reconstruction %d: itemset %v support %d below served lower bound %d", i, e.Itemset, got, e.Lower)
			}
		}
	}

	// Metrics against the retained original.
	var met MetricsResponse
	do(t, client, "GET", srv.URL+"/v1/datasets/web/metrics?lo=0&hi=10", "", http.StatusOK, &met)
	if met.TermsLost < 0 || met.TermsLost > 1 || met.TopKDeviationLB < 0 || met.TopKDeviationLB > 1 {
		t.Errorf("metrics out of range: %+v", met)
	}
	if met.RelativeErrorLB < 0 || met.RelativeErrorLB > 2 {
		t.Errorf("re-a out of [0,2]: %+v", met)
	}

	// Concurrent clients over every read endpoint plus a concurrent
	// publish of a second dataset — the registry swap must not disturb
	// in-flight readers.
	text2, _ := testDataset(t, 9, 200, 20, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				itemset := fmt.Sprintf("%d,%d", (c+i)%30, (c*i)%30)
				var est ItemsetEstimate
				resp, err := client.Get(srv.URL + "/v1/datasets/web/support?itemset=" + itemset)
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("support status %d: %s", resp.StatusCode, raw)
					return
				}
				if err := json.Unmarshal(raw, &est); err != nil {
					errs <- err
					return
				}
				if est.Lower > est.Upper {
					errs <- fmt.Errorf("itemset %s: bounds inverted: %+v", itemset, est)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := client.Post(srv.URL+"/v1/datasets/other?k=3&m=2", "text/plain", strings.NewReader(text2))
		if err != nil {
			errs <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			errs <- fmt.Errorf("concurrent publish status %d", resp.StatusCode)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Delete and 404 afterwards.
	do(t, client, "DELETE", srv.URL+"/v1/datasets/web", "", http.StatusNoContent, nil)
	var e ErrorResponse
	do(t, client, "GET", srv.URL+"/v1/datasets/web/stats", "", http.StatusNotFound, &e)
	if e.Error == "" {
		t.Error("404 body missing error message")
	}
}

// TestServerStreamedPublish publishes an upload with stream=1 and checks the
// result serves queries identically to an in-memory publish at the cut the
// budget derived, and that its metrics endpoint answers.
func TestServerStreamedPublish(t *testing.T) {
	text, d := testDataset(t, 5, 300, 25, 4)
	srv := httptest.NewServer(New(Options{}))
	defer srv.Close()
	client := srv.Client()

	var info DatasetInfo
	do(t, client, "POST", srv.URL+"/v1/datasets/big?k=3&m=2&seed=2&stream=1&membudget=1K",
		text, http.StatusCreated, &info)
	if !info.Streamed {
		t.Fatal("streamed publish not flagged")
	}
	if info.Records != 300 {
		t.Fatalf("streamed publish saw %d records, want 300", info.Records)
	}

	// The budget derives the shard cut, which the publish reports; the
	// in-memory reference must run with the same effective options.
	want, err := core.Anonymize(d, core.Options{K: 3, M: 2, Seed: 2, MaxShardRecords: info.ShardRecords})
	if err != nil {
		t.Fatal(err)
	}
	for term := dataset.Term(0); term < 25; term++ {
		var got ItemsetEstimate
		do(t, client, "GET", fmt.Sprintf("%s/v1/datasets/big/support?itemset=%d", srv.URL, term),
			"", http.StatusOK, &got)
		ref := query.Support(want, dataset.NewRecord(term))
		if got.Lower != ref.Lower || got.Upper != ref.Upper || got.Expected != ref.Expected {
			t.Errorf("term %d: streamed-served (%d, %d, %v) != in-memory (%d, %d, %v)",
				term, got.Lower, got.Upper, got.Expected, ref.Lower, ref.Upper, ref.Expected)
		}
	}

	do(t, client, "GET", srv.URL+"/v1/datasets/big/metrics", "", http.StatusOK, nil)
}

// TestServerValidation covers the error paths: bad names, bad parameters,
// conflicts, caps and oversized bodies.
func TestServerValidation(t *testing.T) {
	text, _ := testDataset(t, 1, 60, 10, 3)
	srv := httptest.NewServer(New(Options{MaxBodyBytes: 1 << 20, MaxReconstructions: 4}))
	defer srv.Close()
	client := srv.Client()

	do(t, client, "POST", srv.URL+"/v1/datasets/bad%2Fname?k=3&m=2", text, http.StatusBadRequest, nil)
	do(t, client, "POST", srv.URL+"/v1/datasets/ds?k=zap", text, http.StatusBadRequest, nil)
	do(t, client, "POST", srv.URL+"/v1/datasets/ds?k=3&m=2&stream=1&membudget=lots", text, http.StatusBadRequest, nil)
	do(t, client, "POST", srv.URL+"/v1/datasets/ds?k=1&m=2", text, http.StatusBadRequest, nil)

	do(t, client, "POST", srv.URL+"/v1/datasets/ds?k=3&m=2", text, http.StatusCreated, nil)
	do(t, client, "POST", srv.URL+"/v1/datasets/ds?k=3&m=2", text, http.StatusConflict, nil)
	// replace must be explicitly "1" — a present-but-declined replace=0
	// does not license overwriting.
	do(t, client, "POST", srv.URL+"/v1/datasets/ds?k=3&m=2&replace=0", text, http.StatusConflict, nil)
	do(t, client, "POST", srv.URL+"/v1/datasets/ds?k=3&m=2&replace=1", text, http.StatusCreated, nil)

	do(t, client, "POST", srv.URL+"/v1/datasets/ds/reconstruct", `{"samples": 99}`, http.StatusBadRequest, nil)
	do(t, client, "POST", srv.URL+"/v1/datasets/ds/reconstruct", `{"samples": 0}`, http.StatusBadRequest, nil)
	do(t, client, "POST", srv.URL+"/v1/datasets/ds/support", `{bad json`, http.StatusBadRequest, nil)
	do(t, client, "GET", srv.URL+"/v1/datasets/ds/support?itemset=1,frog", "", http.StatusBadRequest, nil)
	// A missing/mistyped itemset parameter must not answer the empty
	// itemset; negative seeds must not wrap into uint64.
	do(t, client, "GET", srv.URL+"/v1/datasets/ds/support", "", http.StatusBadRequest, nil)
	do(t, client, "GET", srv.URL+"/v1/datasets/ds/support?itemsets=1,2", "", http.StatusBadRequest, nil)
	do(t, client, "POST", srv.URL+"/v1/datasets/neg?k=3&m=2&seed=-1", text, http.StatusBadRequest, nil)
	do(t, client, "POST", srv.URL+"/v1/datasets/big64?k=3&m=2&seed=9223372036854775809", text, http.StatusCreated, nil)

	// Metrics-endpoint work caps: unbounded mining parameters are rejected.
	do(t, client, "GET", srv.URL+"/v1/datasets/ds/metrics?topk=1000000000", "", http.StatusBadRequest, nil)
	do(t, client, "GET", srv.URL+"/v1/datasets/ds/metrics?size=30", "", http.StatusBadRequest, nil)
	do(t, client, "GET", srv.URL+"/v1/datasets/ds/metrics?lo=0&hi=5000", "", http.StatusBadRequest, nil)
	do(t, client, "GET", srv.URL+"/v1/datasets/ds/metrics?k=0", "", http.StatusBadRequest, nil)
	// hi-lo must not wrap past the width cap.
	do(t, client, "GET", srv.URL+"/v1/datasets/ds/metrics?lo=-9000000000000000000&hi=9000000000000000000", "", http.StatusBadRequest, nil)
	do(t, client, "GET", srv.URL+"/v1/datasets/ds/metrics?lo=10&hi=2", "", http.StatusBadRequest, nil)

	// Both paths report the effective shard cut: an explicit cut below the
	// cluster-size cap (30 by default) is raised to it.
	for _, c := range []struct{ query, want int }{{40, 40}, {5, 30}} {
		for _, path := range []string{"", "&stream=1"} {
			var cut DatasetInfo
			url := fmt.Sprintf("%s/v1/datasets/cut?k=3&m=2&replace=1&shardrecords=%d%s", srv.URL, c.query, path)
			do(t, client, "POST", url, text, http.StatusCreated, &cut)
			if cut.ShardRecords != c.want {
				t.Errorf("shardrecords=%d%s reported as %d, want %d", c.query, path, cut.ShardRecords, c.want)
			}
		}
	}
	do(t, client, "DELETE", srv.URL+"/v1/datasets/ghost", "", http.StatusNotFound, nil)
	do(t, client, "GET", srv.URL+"/v1/datasets/ghost/metrics", "", http.StatusNotFound, nil)

	big := strings.Repeat("1 2 3\n", 1<<18) // ~1.5 MiB > 1 MiB cap
	resp, err := client.Post(srv.URL+"/v1/datasets/huge?k=3&m=2", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload: status %d, want 413", resp.StatusCode)
	}

	var health map[string]string
	do(t, client, "GET", srv.URL+"/healthz", "", http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}
}

// TestHandlerPanic registers two panicking routes on the mux. One panics
// before writing anything: it must answer 500 with the error document and
// log the route, the panic value and the stack. The other panics after its
// header went out: ServeHTTP must abort the response with
// http.ErrAbortHandler, so a client sees a cut response, not a status.
func TestHandlerPanic(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	s := New(Options{Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	s.mux.HandleFunc("GET /test/panic-early", func(w http.ResponseWriter, r *http.Request) {
		panic("early failure")
	})
	s.mux.HandleFunc("GET /test/panic-late", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "partial")
		panic("late failure")
	})

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/test/panic-early", nil))
	var doc ErrorResponse
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("early panic: status %d, want 500", rec.Code)
	} else if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc.Error == "" {
		t.Errorf("early panic: body %q is not an error document (%v)", rec.Body, err)
	}
	mu.Lock()
	if len(logged) != 1 {
		t.Errorf("early panic logged %d lines, want 1", len(logged))
	} else {
		for _, want := range []string{"GET /test/panic-early", "early failure", "runtime/debug.Stack"} {
			if !strings.Contains(logged[0], want) {
				t.Errorf("early panic log lacks %q:\n%s", want, logged[0])
			}
		}
	}
	mu.Unlock()

	func() {
		defer func() {
			if v := recover(); v != http.ErrAbortHandler {
				t.Errorf("late panic re-raised %v, want http.ErrAbortHandler", v)
			}
		}()
		s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/test/panic-late", nil))
	}()

	// Over a connection: the early panic is a status, the late one a cut
	// response.
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/test/panic-early")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("early panic over HTTP: status %d, want 500", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/test/panic-late"); err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Errorf("late panic over HTTP: a complete response with status %d", resp.StatusCode)
		}
	}
}
