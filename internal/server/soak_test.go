package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/load"
)

// TestServerSoakUnderChurn is the loadbench-shaped e2e soak: N concurrent
// clients drain workload-model op streams (Zipf singletons, correlated
// itemsets, reconstructions, append/remove delta republishes, plus
// publish/delete churn) against a live disassod handler for a bounded
// duration. The dominant churn is incremental: each client appends batches
// through the delta endpoint and later removes its own oldest batch, so
// snapshot versions chain under the readers' feet; full republishes
// (replace=1, varying seed) and deletes keep racing dataset replacement and
// disappearance on top. Invariants, checked on every response: the server
// never answers 5xx, and every support estimate satisfies the sandwich
// Lower ≤ Expected ≤ Upper. Run under -race (CI does) this is the
// registry+version-chain+cache concurrency proof.
func TestServerSoakUnderChurn(t *testing.T) {
	duration := 1500 * time.Millisecond
	if testing.Short() {
		duration = 300 * time.Millisecond
	}

	// A deterministic upload body plus the matching local publication the
	// workload model draws terms from. The publication is sharded
	// (shardrecords=60) so delta republishes genuinely exercise the
	// dirty-shard path; churn republishes vary the seed, so swapped-in
	// snapshots genuinely differ — the model's terms remain valid queries
	// (the domain survives anonymization).
	body, d := testDataset(t, 21, 300, 60, 6)
	a, err := core.Anonymize(d, core.Options{K: 3, M: 2, Seed: 1, MaxShardRecords: 60})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := load.ParseSpec(`
		singleton weight=45 zipf=1.2
		itemset weight=25 min=2 max=3
		reconstruct weight=4 samples=2
		append weight=12 count=6 min=1 max=4
		remove weight=8
		publish weight=3
		delete weight=3
	`)
	if err != nil {
		t.Fatal(err)
	}
	model, err := load.NewModel(a, spec, 77)
	if err != nil {
		t.Fatal(err)
	}

	// A small cache cap keeps eviction churning during the soak.
	oldEntries := supportCacheEntries
	supportCacheEntries = 64
	defer func() { supportCacheEntries = oldEntries }()
	srv := httptest.NewServer(New(Options{}))
	defer srv.Close()
	base := srv.URL + "/v1/datasets/soak"
	do(t, srv.Client(), "POST", base+"?k=3&m=2&seed=1&shardrecords=60", body, http.StatusCreated, nil)

	const clients = 6
	var (
		wg       sync.WaitGroup
		pubSeq   atomic.Uint64
		opsDone  [6]atomic.Int64
		failures = make(chan error, clients)
	)
	deadline := time.Now().Add(duration)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sc := &soakClient{client: srv.Client()}
			st := model.Stream(c)
			for time.Now().Before(deadline) {
				op := st.Next()
				if err := sc.soakOp(base, body, op, &pubSeq); err != nil {
					failures <- fmt.Errorf("client %d: %w", c, err)
					return
				}
				opsDone[op.Kind].Add(1)
			}
		}(c)
	}
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Error(err)
	}
	total := int64(0)
	for k := range opsDone {
		if opsDone[k].Load() == 0 {
			t.Errorf("soak never exercised op kind %v", load.OpKind(k))
		}
		total += opsDone[k].Load()
	}
	t.Logf("soak: %d ops in %v (support=%d reconstruct=%d publish=%d delete=%d append=%d remove=%d)",
		total, duration, opsDone[load.OpSupport].Load(), opsDone[load.OpReconstruct].Load(),
		opsDone[load.OpPublish].Load(), opsDone[load.OpDelete].Load(),
		opsDone[load.OpAppend].Load(), opsDone[load.OpRemove].Load())
}

// soakClient is one soak goroutine's driver state: its HTTP client plus the
// queue of batches it appended and has not yet removed — the bookkeeping that
// lets OpRemove target records that were genuinely resident when appended.
type soakClient struct {
	client  *http.Client
	pending []string // rendered batches, oldest first
}

// soakOp executes one workload op against the server, enforcing the soak
// invariants: no 5xx ever; 404/409 are legitimate churn outcomes; support
// answers must satisfy the sandwich invariant.
func (sc *soakClient) soakOp(base, body string, op load.Op, pubSeq *atomic.Uint64) error {
	client := sc.client
	switch op.Kind {
	case load.OpSupport:
		reqBody, err := json.Marshal(SupportRequest{Itemsets: [][]dataset.Term{op.Itemset}})
		if err != nil {
			return err
		}
		status, raw, err := soakDo(client, "POST", base+"/support", string(reqBody))
		if err != nil {
			return err
		}
		if status == http.StatusNotFound {
			return nil // deleted mid-flight by churn
		}
		if status != http.StatusOK {
			return fmt.Errorf("support: status %d, body %s", status, raw)
		}
		var resp SupportResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			return fmt.Errorf("support: %w (body %s)", err, raw)
		}
		if len(resp.Estimates) != 1 {
			return fmt.Errorf("support: %d estimates", len(resp.Estimates))
		}
		e := resp.Estimates[0]
		if e.Lower > e.Upper || e.Expected < float64(e.Lower) || e.Expected > float64(e.Upper) {
			return fmt.Errorf("support %v: sandwich violated: %+v", op.Itemset, e)
		}
		return nil
	case load.OpReconstruct:
		req, err := json.Marshal(ReconstructRequest{Samples: op.Samples, Seed: op.Seed})
		if err != nil {
			return err
		}
		status, raw, err := soakDo(client, "POST", base+"/reconstruct", string(req))
		if err != nil {
			return err
		}
		if status != http.StatusOK && status != http.StatusNotFound {
			return fmt.Errorf("reconstruct: status %d, body %s", status, raw)
		}
		return nil
	case load.OpPublish:
		// Vary the seed so each republish swaps in a genuinely different
		// snapshot (new forest, new index, fresh empty cache).
		seed := 1 + pubSeq.Add(1)%5
		url := fmt.Sprintf("%s?k=3&m=2&seed=%d&shardrecords=60&replace=1", base, seed)
		status, raw, err := soakDo(client, "POST", url, body)
		if err != nil {
			return err
		}
		if status != http.StatusCreated {
			return fmt.Errorf("publish: status %d, body %s", status, raw)
		}
		return nil
	case load.OpDelete:
		status, raw, err := soakDo(client, "DELETE", base, "")
		if err != nil {
			return err
		}
		if status != http.StatusNoContent && status != http.StatusNotFound {
			return fmt.Errorf("delete: status %d, body %s", status, raw)
		}
		return nil
	case load.OpAppend:
		batch := renderRecords(op.Batch)
		status, raw, err := soakDo(client, "POST", base+"/append", batch)
		if err != nil {
			return err
		}
		switch status {
		case http.StatusOK:
			sc.pending = append(sc.pending, batch)
		case http.StatusNotFound:
			// Deleted mid-flight by churn.
		default:
			return fmt.Errorf("append: status %d, body %s", status, raw)
		}
		return nil
	case load.OpRemove:
		if len(sc.pending) == 0 {
			return nil // nothing this client appended survives to remove
		}
		batch := sc.pending[0]
		sc.pending = sc.pending[1:]
		status, raw, err := soakDo(client, "POST", base+"/remove", batch)
		if err != nil {
			return err
		}
		// 404: deleted mid-flight. 409: a full republish (replace=1) reset
		// the dataset to the original body, so this client's appended batch
		// is legitimately gone. Both are churn, not failures.
		if status != http.StatusOK && status != http.StatusNotFound && status != http.StatusConflict {
			return fmt.Errorf("remove: status %d, body %s", status, raw)
		}
		return nil
	}
	return fmt.Errorf("unknown op kind %v", op.Kind)
}

// soakDo issues one request, returning status and body; any 5xx is an
// immediate error.
func soakDo(client *http.Client, method, url, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode >= 500 {
		return resp.StatusCode, raw, fmt.Errorf("%s %s: server error %d: %s", method, url, resp.StatusCode, raw)
	}
	return resp.StatusCode, raw, nil
}
