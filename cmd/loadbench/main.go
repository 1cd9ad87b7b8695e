// Command loadbench drives a disassod HTTP service with a workload-model
// query stream and reports per-endpoint latency histograms — the traffic
// side of the repo's "serve heavy query load" north star. The workload is
// drawn from the published snapshot's own term domain by internal/load:
// Zipf-skewed singleton supports, correlated multi-term itemsets sampled
// from co-occurring cluster terms, reconstruction-sampling calls and
// publish/delete churn, mixed by a small text spec.
//
// Usage:
//
//	loadbench -data web.txt -inprocess -clients 8 -duration 10s
//	loadbench -data web.txt -addr http://localhost:8080 -mix 'singleton zipf=1.3'
//
// The driver anonymizes the dataset locally (same parameters the server
// publishes with) to build the model, publishes the dataset to the target,
// then runs N closed-loop clients — or open-loop at a fixed aggregate
// -rate — until -duration or -requests is exhausted. Churn ops republish
// and delete a scratch "<dataset>-churn" name so the measured query target
// stays resident; append/remove ops drive the incremental delta-republish
// endpoints against the measured dataset itself (publish with
// -shard-records > 0 so deltas re-anonymize only dirty shards), each client
// removing batches it previously appended.
//
// With -bench the results are also printed as lines in the `go test -bench`
// format — name, iteration count (requests), then value-unit pairs — so they
// read like the micro-benchmarks printed next to them in CI's bench job:
//
//	BenchmarkLoadbench/singleton-2 	<requests>	<mean> ns/op	<p50> p50-ns	...
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"disasso"
	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/load"
)

type config struct {
	data      string        // dataset file (ReadIDs text format)
	addr      string        // target base URL; "" with inprocess
	inprocess bool          // serve an in-process disassod on a loopback listener
	name      string        // dataset name to publish and query
	k, m      int           // anonymization parameters
	maxClu    int           // MaxClusterSize
	shardRecs int           // MaxShardRecords (shard cut for delta republish)
	seed      uint64        // anonymization + workload seed
	specFile  string        // mix spec file
	mix       string        // inline mix spec (overrides specFile)
	clients   int           // concurrent client goroutines
	duration  time.Duration // stop after this long (0 = requests-bound only)
	requests  int64         // stop after this many ops (0 = duration-bound only)
	rate      float64       // aggregate target ops/s (0 = closed loop)
	batch     int           // support queries coalesced per POST request
	cache     int           // in-process server support-cache entries (-1 disables)
	noPublish bool          // assume the dataset is already published
	benchFmt  bool          // emit go-bench-style lines on stdout
	label     string        // bench line label
}

func main() {
	var cfg config
	flag.StringVar(&cfg.data, "data", "", "dataset file, one record of integer term ids per line (required)")
	flag.StringVar(&cfg.addr, "addr", "", "target disassod base URL, e.g. http://localhost:8080")
	flag.BoolVar(&cfg.inprocess, "inprocess", false, "serve an in-process disassod on a loopback listener instead of -addr")
	flag.StringVar(&cfg.name, "dataset", "bench", "dataset name to publish and query")
	flag.IntVar(&cfg.k, "k", 5, "anonymity parameter k")
	flag.IntVar(&cfg.m, "m", 2, "anonymity parameter m")
	flag.IntVar(&cfg.maxClu, "maxcluster", 0, "maximum cluster size (0 = library default)")
	flag.IntVar(&cfg.shardRecs, "shard-records", 0, "shard cut in records (0 = one global shard; set > 0 so append/remove deltas republish incrementally)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "anonymization and workload PRNG seed")
	flag.StringVar(&cfg.specFile, "spec", "", "workload mix spec file (default: built-in mixed read-heavy spec)")
	flag.StringVar(&cfg.mix, "mix", "", "inline workload mix spec, ';' separates entries (overrides -spec)")
	flag.IntVar(&cfg.clients, "clients", 8, "concurrent clients")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "run length (0 = until -requests)")
	flag.Int64Var(&cfg.requests, "requests", 0, "total op budget (0 = until -duration)")
	flag.Float64Var(&cfg.rate, "rate", 0, "aggregate open-loop target ops/s (0 = closed loop)")
	flag.IntVar(&cfg.batch, "batch", 1, "consecutive support queries coalesced into one batch POST (analyst-client style)")
	flag.IntVar(&cfg.cache, "cache", 0, "in-process server support-cache entries (0 = server default, <0 disables)")
	flag.BoolVar(&cfg.noPublish, "no-publish", false, "assume the dataset is already published under -dataset")
	flag.BoolVar(&cfg.benchFmt, "bench", false, "emit go test -bench style result lines on stdout (summary goes to stderr)")
	flag.StringVar(&cfg.label, "label", "Loadbench", "benchmark name prefix for -bench output")
	flag.Parse()
	if err := run(cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
}

// endpointStats aggregates one mix entry's results across clients. The
// histogram is per request (a batch POST is one sample, attributed to its
// first query's entry); queries counts the individual workload ops, so
// batched runs report both honestly.
type endpointStats struct {
	hist    load.Histogram
	queries int64
	errors  int64 // non-2xx statuses outside the expected churn outcomes
}

// runStats is everything a finished run reports.
type runStats struct {
	perEntry []endpointStats
	wall     time.Duration
}

func run(cfg config, out, logw io.Writer) error {
	switch {
	case cfg.data == "":
		return errors.New("-data is required")
	case cfg.inprocess && cfg.addr != "":
		return errors.New("-inprocess and -addr are mutually exclusive")
	case !cfg.inprocess && cfg.addr == "":
		return errors.New("one of -addr or -inprocess is required")
	case cfg.clients < 1:
		return errors.New("-clients must be ≥ 1")
	case cfg.duration <= 0 && cfg.requests <= 0:
		return errors.New("one of -duration or -requests must be positive")
	case cfg.rate < 0:
		return errors.New("-rate must be ≥ 0")
	case cfg.batch < 0 || cfg.batch > 10_000:
		return errors.New("-batch must be in [0, 10000] (0 and 1 both mean unbatched)")
	}

	spec, err := resolveSpec(cfg)
	if err != nil {
		return err
	}

	raw, err := os.ReadFile(cfg.data)
	if err != nil {
		return err
	}
	d, err := dataset.ReadIDs(strings.NewReader(string(raw)))
	if err != nil {
		return err
	}
	opts := core.Options{K: cfg.k, M: cfg.m, MaxClusterSize: cfg.maxClu, MaxShardRecords: cfg.shardRecs, Seed: cfg.seed}
	fmt.Fprintf(logw, "loadbench: anonymizing %d records (k=%d m=%d) for the workload model\n", len(d.Records), cfg.k, cfg.m)
	a, err := core.Anonymize(d, opts)
	if err != nil {
		return err
	}
	model, err := load.NewModel(a, spec, cfg.seed)
	if err != nil {
		return err
	}

	base := cfg.addr
	if cfg.inprocess {
		srv, shutdown, err := startInprocess(cfg)
		if err != nil {
			return err
		}
		defer shutdown()
		base = srv
		fmt.Fprintf(logw, "loadbench: in-process disassod on %s (cache=%d)\n", base, cfg.cache)
	}

	cl := &driver{
		cfg:   cfg,
		base:  strings.TrimSuffix(base, "/"),
		body:  string(raw),
		model: model,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: cfg.clients * 2,
		}},
	}
	if !cfg.noPublish {
		if err := cl.publish(cl.dataURL(cfg.name), true); err != nil {
			return fmt.Errorf("initial publish: %w", err)
		}
	}

	stats := cl.drive(len(spec.Entries))
	report(out, logw, cfg, spec, stats)
	return nil
}

// resolveSpec picks the workload mix: -mix inline, -spec file, or default.
func resolveSpec(cfg config) (*load.Spec, error) {
	switch {
	case cfg.mix != "":
		return load.ParseSpec(cfg.mix)
	case cfg.specFile != "":
		raw, err := os.ReadFile(cfg.specFile)
		if err != nil {
			return nil, err
		}
		return load.ParseSpec(string(raw))
	}
	return load.DefaultSpec(), nil
}

// startInprocess serves disasso.NewServer on a loopback listener, returning
// the base URL and a shutdown func.
func startInprocess(cfg config) (string, func(), error) {
	handler := disasso.NewServer(disasso.ServerOptions{SupportCacheEntries: cfg.cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// driver owns the shared state of one load run.
type driver struct {
	cfg    config
	base   string
	body   string
	model  *load.Model
	client *http.Client

	pubSeq atomic.Uint64 // round-robins churn republish seeds
	done   atomic.Int64  // ops issued, for the -requests budget
}

func (dr *driver) dataURL(name string) string {
	return dr.base + "/v1/datasets/" + name
}

// drive runs the client goroutines and merges their per-entry stats.
func (dr *driver) drive(entries int) runStats {
	var deadline time.Time
	if dr.cfg.duration > 0 {
		deadline = time.Now().Add(dr.cfg.duration)
	}
	perClient := make([][]endpointStats, dr.cfg.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < dr.cfg.clients; c++ {
		perClient[c] = make([]endpointStats, entries)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			dr.clientLoop(c, perClient[c], deadline)
		}(c)
	}
	wg.Wait()
	stats := runStats{perEntry: make([]endpointStats, entries), wall: time.Since(start)}
	for _, cs := range perClient {
		for i := range cs {
			stats.perEntry[i].hist.Merge(&cs[i].hist)
			stats.perEntry[i].queries += cs[i].queries
			stats.perEntry[i].errors += cs[i].errors
		}
	}
	return stats
}

// clientLoop drains one workload stream until the deadline or the shared
// request budget runs out. Open-loop mode paces each client at rate/clients
// ops per second, measuring latency from the scheduled send time (so queue
// delay counts, the standard coordinated-omission fix); closed-loop mode
// issues back to back.
func (dr *driver) clientLoop(id int, stats []endpointStats, deadline time.Time) {
	st := dr.model.Stream(id)
	cs := &clientState{}
	var interval time.Duration
	if dr.cfg.rate > 0 {
		interval = time.Duration(float64(time.Second) * float64(dr.cfg.clients) / dr.cfg.rate)
	}
	next := time.Now()
	var pending *load.Op
	for {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return
		}
		// Each op is charged against the shared -requests budget exactly
		// once, when it is drawn from the stream (a carried-over pending op
		// was charged by the batching loop that drew it).
		var op load.Op
		if pending != nil {
			op, pending = *pending, nil
		} else {
			if dr.cfg.requests > 0 && dr.done.Add(1) > dr.cfg.requests {
				return
			}
			op = st.Next()
		}
		stats[op.Entry].queries++
		// Coalesce consecutive support queries into one batch POST (the
		// analyst-client shape; the server's batch endpoint exists for it).
		// The batch stops early at the first non-support op, which is
		// carried to the next iteration; the request's latency is
		// attributed to the entry of its first query, while the query
		// counts — and the -requests budget — charge every coalesced op.
		var itemsets []dataset.Record
		if op.Kind == load.OpSupport && dr.cfg.batch > 1 {
			itemsets = append(itemsets, op.Itemset)
			for len(itemsets) < dr.cfg.batch {
				if dr.cfg.requests > 0 && dr.done.Add(1) > dr.cfg.requests {
					break
				}
				nxt := st.Next()
				if nxt.Kind != load.OpSupport {
					pending = &nxt
					break
				}
				stats[nxt.Entry].queries++
				itemsets = append(itemsets, nxt.Itemset)
			}
		}
		opsInRequest := 1
		if itemsets != nil {
			opsInRequest = len(itemsets)
		}
		var began time.Time
		if interval > 0 {
			// Open loop paces by ops, so a batch of B queries occupies B
			// schedule slots and -rate means queries/s whatever the batch
			// size. Never sleep past the deadline: an op whose slot falls
			// outside the window is not issued at all.
			if wait := time.Until(next); wait > 0 {
				if !deadline.IsZero() && time.Now().Add(wait).After(deadline) {
					return
				}
				time.Sleep(wait)
			}
			began = next
			next = next.Add(interval * time.Duration(opsInRequest))
		} else {
			began = time.Now()
		}
		var ok bool
		if itemsets != nil {
			ok = dr.doSupport(itemsets)
		} else {
			ok = dr.doOp(cs, op)
		}
		stats[op.Entry].hist.Observe(time.Since(began))
		if !ok {
			stats[op.Entry].errors++
		}
	}
}

// doSupport posts one batch support request.
func (dr *driver) doSupport(itemsets []dataset.Record) bool {
	var sb strings.Builder
	sb.WriteString(`{"itemsets":[`)
	for i, s := range itemsets {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('[')
		for j, t := range s {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", t)
		}
		sb.WriteByte(']')
	}
	sb.WriteString(`]}`)
	status, err := dr.post(dr.dataURL(dr.cfg.name)+"/support", sb.String())
	return err == nil && status == http.StatusOK
}

// clientState is one client goroutine's delta bookkeeping: the batches it
// appended and has not yet removed, oldest first, so OpRemove always targets
// records that were genuinely resident when appended.
type clientState struct {
	pending []string // rendered append batches
}

// doOp issues one operation, reporting whether it succeeded. Expected churn
// outcomes (404 after a delete, 409 where replace or a delta races) count as
// success; transport errors and every other non-2xx count as failures.
func (dr *driver) doOp(cs *clientState, op load.Op) bool {
	churn := dr.dataURL(dr.cfg.name + "-churn")
	switch op.Kind {
	case load.OpSupport:
		return dr.doSupport([]dataset.Record{op.Itemset})
	case load.OpReconstruct:
		body := fmt.Sprintf(`{"samples":%d,"seed":%d}`, op.Samples, op.Seed)
		status, err := dr.post(dr.dataURL(dr.cfg.name)+"/reconstruct", body)
		return err == nil && status == http.StatusOK
	case load.OpPublish:
		seed := 1 + dr.pubSeq.Add(1)%8
		url := fmt.Sprintf("%s?k=%d&m=%d&seed=%d&replace=1", churn, dr.cfg.k, dr.cfg.m, seed)
		status, err := dr.post(url, dr.body)
		return err == nil && status == http.StatusCreated
	case load.OpDelete:
		req, err := http.NewRequest(http.MethodDelete, churn, nil)
		if err != nil {
			return false
		}
		status, err := dr.do(req)
		return err == nil && (status == http.StatusNoContent || status == http.StatusNotFound)
	case load.OpAppend:
		batch := renderBatch(op.Batch)
		status, err := dr.post(dr.dataURL(dr.cfg.name)+"/append", batch)
		if err != nil {
			return false
		}
		if status == http.StatusOK {
			cs.pending = append(cs.pending, batch)
		}
		return status == http.StatusOK || status == http.StatusNotFound || status == http.StatusConflict
	case load.OpRemove:
		if len(cs.pending) == 0 {
			return true // nothing appended yet; pacing op, not a failure
		}
		batch := cs.pending[0]
		cs.pending = cs.pending[1:]
		status, err := dr.post(dr.dataURL(dr.cfg.name)+"/remove", batch)
		if err != nil {
			return false
		}
		// 409: another client's replace or remove raced this batch away.
		return status == http.StatusOK || status == http.StatusNotFound || status == http.StatusConflict
	}
	return false
}

// renderBatch writes a delta batch in the endpoints' text body format.
func renderBatch(records []dataset.Record) string {
	var sb strings.Builder
	for _, r := range records {
		for j, t := range r {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", t)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (dr *driver) post(url, body string) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	return dr.do(req)
}

// do sends the request, drains and closes the body (connection reuse), and
// returns the status.
func (dr *driver) do(req *http.Request) (int, error) {
	resp, err := dr.client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// publish uploads the dataset under the given URL.
func (dr *driver) publish(url string, replace bool) error {
	full := fmt.Sprintf("%s?k=%d&m=%d&maxcluster=%d&shardrecords=%d&seed=%d",
		url, dr.cfg.k, dr.cfg.m, dr.cfg.maxClu, dr.cfg.shardRecs, dr.cfg.seed)
	if replace {
		full += "&replace=1"
	}
	status, err := dr.post(full, dr.body)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("POST %s: status %d", full, status)
	}
	return nil
}

// entryName labels a mix entry for reporting: its kind, disambiguated by
// index when the kind repeats.
func entryName(spec *load.Spec, i int) string {
	n := 0
	for j, e := range spec.Entries {
		if e.Kind == spec.Entries[i].Kind {
			if j == i {
				break
			}
			n++
		}
	}
	if n > 0 {
		return fmt.Sprintf("%s%d", spec.Entries[i].Kind, n+1)
	}
	return spec.Entries[i].Kind
}

// report writes the human summary to logw and, with -bench, the lines in
// the go test -bench format to out.
func report(out, logw io.Writer, cfg config, spec *load.Spec, stats runStats) {
	var total load.Histogram
	var totalErrs, totalQueries int64
	fmt.Fprintf(logw, "loadbench: %d clients, %v wall\n", cfg.clients, stats.wall.Round(time.Millisecond))
	fmt.Fprintf(logw, "%-14s %10s %10s %8s %10s %10s %10s %10s %10s\n",
		"endpoint", "requests", "queries", "errors", "mean", "p50", "p95", "p99", "max")
	for i := range stats.perEntry {
		es := &stats.perEntry[i]
		if es.hist.Count() == 0 && es.queries == 0 {
			continue
		}
		total.Merge(&es.hist)
		totalErrs += es.errors
		totalQueries += es.queries
		fmt.Fprintf(logw, "%-14s %10d %10d %8d %10v %10v %10v %10v %10v\n",
			entryName(spec, i), es.hist.Count(), es.queries, es.errors,
			es.hist.Mean().Round(time.Microsecond),
			es.hist.Quantile(0.50).Round(time.Microsecond),
			es.hist.Quantile(0.95).Round(time.Microsecond),
			es.hist.Quantile(0.99).Round(time.Microsecond),
			es.hist.Max().Round(time.Microsecond))
	}
	fmt.Fprintf(logw, "total: %d requests (%d queries), %d errors, %.0f req/s, %.0f queries/s\n",
		total.Count(), totalQueries, totalErrs,
		float64(total.Count())/stats.wall.Seconds(), float64(totalQueries)/stats.wall.Seconds())

	if !cfg.benchFmt {
		return
	}
	// go test -bench line shape: name, iterations (requests), then
	// value-unit pairs.
	procs := runtime.GOMAXPROCS(0)
	for i := range stats.perEntry {
		es := &stats.perEntry[i]
		if es.hist.Count() == 0 {
			continue
		}
		writeBenchLine(out, fmt.Sprintf("Benchmark%s/%s-%d", cfg.label, entryName(spec, i), procs), es, stats.wall)
	}
	writeBenchLine(out, fmt.Sprintf("Benchmark%s/total-%d", cfg.label, procs),
		&endpointStats{hist: total, queries: totalQueries, errors: totalErrs}, stats.wall)
}

// writeBenchLine emits one bench-format result line: per-request latency
// quantiles plus request and query throughput (they differ under -batch).
func writeBenchLine(out io.Writer, name string, es *endpointStats, wall time.Duration) {
	h := &es.hist
	fmt.Fprintf(out, "%s \t%d\t%d ns/op\t%d p50-ns\t%d p95-ns\t%d p99-ns\t%d max-ns\t%d errors\t%.1f req/s\t%.1f queries/s\n",
		name, h.Count(), int64(h.Mean()),
		int64(h.Quantile(0.50)), int64(h.Quantile(0.95)), int64(h.Quantile(0.99)),
		int64(h.Max()), es.errors, float64(h.Count())/wall.Seconds(), float64(es.queries)/wall.Seconds())
}
