package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"disasso/bench/internal/inputs"
	"disasso/internal/dataset"
)

// Dataset names the workloads publish under.
const (
	livePaper  = "paper"        // in-memory, one global shard: the paper's pipeline
	liveStream = "paper-stream" // streaming engine under a 1 MiB budget
	liveDelta  = "live"         // sharded, receives the append/remove deltas
	liveSafe   = "safe"         // safe disassociation
)

// result is what one untraced workload run measured.
type result struct {
	workload string
	// metrics are the end-to-end metrics of BENCHMARK.json; n their sample
	// counts.
	metrics map[string]float64
	n       map[string]int
	// kinds holds the raw latency samples (ms) of the workload's operation
	// ("op") and of every request kind: publish, stream, delta, audit,
	// recover, setup.
	kinds map[string][]float64
	// details are the per-kind lines printed after the metrics.
	details           []string
	attempted, failed int
	inputFP, probeFP  string
	// Load-side facts for the trace report: how much of the read traffic
	// repeated, and how busy the benchmark itself was.
	repeatFrac        float64
	distinctQueries   int
	clientCPUFrac     float64
	timedPhaseSeconds float64
}

// runner carries one run's state.
type runner struct {
	cfg     inputs.Config
	in      *inputs.Inputs
	bin     string
	dir     string
	dataDir string
	tmpDir  string
	pins    fingerprints

	d        *daemon
	names    []string // datasets the run leaves published
	res      *result
	ops      []float64 // the workload's operation latencies (ms)
	liveStat []byte    // live's version-free stats right after set-up

	ref speedRef
	// rss is the highest VmHWM (MiB) of the servers seen so far that ran a
	// set-up, and nRSS how many were read.
	rss  float64
	nRSS int
	// busy is the timed phase's length without the reference samples
	// taken in it, cpu the benchmark's CPU time over the same stretches.
	busy time.Duration
	cpu  float64
}

// runWorkload runs one workload against fresh disassod processes built at
// bin, with scratch files under dir. An error means the run failed: an
// operation errored, an answer was wrong, or a fingerprint did not match.
// The returned result carries the attempt counts either way.
func runWorkload(cfg inputs.Config, bin, dir string, pins fingerprints) (*result, error) {
	r := &runner{
		cfg: cfg, bin: bin, dir: dir, pins: pins,
		tmpDir: filepath.Join(dir, "tmp"),
		res:    &result{workload: cfg.Workload, kinds: map[string][]float64{}},
	}
	err := r.run()
	if r.d != nil {
		// Only reached on a failed run: a successful one stops its daemon.
		_ = r.d.kill()
	}
	if err != nil {
		r.res.failed++
	}
	return r.res, err
}

func (r *runner) run() error {
	in, err := inputs.Generate(r.cfg)
	if err != nil {
		return err
	}
	r.in = in
	r.res.inputFP = in.Fingerprint()
	if err := r.pins.check(r.cfg.Workload, "input", r.res.inputFP); err != nil {
		return err
	}
	if err := os.MkdirAll(r.tmpDir, 0o755); err != nil {
		return err
	}
	if err := r.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	r.sampleRef("timed")
	switch {
	case r.cfg.Workload == inputs.Publish:
		err = r.timedPublish()
	case r.cfg.Workload == inputs.PublishSafe:
		err = r.timedSafe()
	default:
		err = r.timedRead()
	}
	if err != nil {
		return fmt.Errorf("timed phase: %w", err)
	}
	r.res.kinds["op"] = r.ops
	r.res.timedPhaseSeconds = r.busy.Seconds()
	r.res.clientCPUFrac = r.cpu / (r.res.timedPhaseSeconds * float64(runtime.NumCPU()))

	if err := r.notePeakRSS(); err != nil {
		return err
	}
	pre, err := r.probe()
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	if err := r.pins.check(r.cfg.Workload, "probes", r.res.probeFP); err != nil {
		return err
	}
	if err := r.restarts(pre); err != nil {
		return fmt.Errorf("restarts: %w", err)
	}
	err = r.d.stop()
	r.d = nil
	if err != nil {
		return err
	}
	r.summarize()
	return nil
}

// notePeakRSS folds the current server's VmHWM into r.rss. Each server that
// runs a set-up is read before it stops, the last one after the timed
// phase. A single publish's peak depends on when the collector happens to
// run, and on the read workloads, whose memory peaks in their one set-up
// publish, it came out either about 82 or about 94 MiB. The highest of the
// three servers varies far less; on the publish workloads, whose last
// server publishes many times, it is that server's peak.
func (r *runner) notePeakRSS() error {
	rss, err := r.d.peakRSSMiB()
	r.rss = max(r.rss, rss)
	r.nRSS++
	return err
}

// op runs one operation, counting the attempt and recording its latency
// under kind.
func (r *runner) op(kind string, f func() error) error {
	r.res.attempted++
	t0 := time.Now()
	if err := f(); err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	r.res.kinds[kind] = append(r.res.kinds[kind], ms(time.Since(t0)))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sampleRef times the speed reference once, for the given phase. Callers
// make sure no request is in flight.
func (r *runner) sampleRef(phase string) {
	r.res.kinds["ref."+phase] = append(r.res.kinds["ref."+phase], r.ref.sample())
}

// timed runs part of the timed phase: its wall time counts towards the
// phase's length and the benchmark's CPU time towards load.client_cpu_frac. A
// reference sample follows, counted in neither.
func (r *runner) timed(f func() error) error {
	c0, t0 := cpuSeconds(), time.Now()
	err := f()
	r.busy += time.Since(t0)
	r.cpu += cpuSeconds() - c0
	if err == nil {
		r.sampleRef("timed")
	}
	return err
}

// setup times, cfg.Setups times over, the path from exec of a fresh
// disassod on an empty data directory to a server ready for the timed
// phase: every set-up but the last is torn down again.
func (r *runner) setup() error {
	for i := 0; i < r.cfg.Setups; i++ {
		dataDir := filepath.Join(r.dir, fmt.Sprintf("data%d", i))
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return err
		}
		r.sampleRef("setup")
		t0 := time.Now()
		d, err := startDaemon(r.bin, dataDir, r.tmpDir)
		if err != nil {
			return err
		}
		r.d = d
		if err := r.initial(); err != nil {
			return err
		}
		r.res.kinds["setup"] = append(r.res.kinds["setup"], ms(time.Since(t0)))
		if i == r.cfg.Setups-1 {
			r.dataDir = dataDir
			break
		}
		if err := r.notePeakRSS(); err != nil {
			return err
		}
		err = d.stop()
		r.d = nil
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return err
		}
	}
	return nil
}

// initial makes the publications the timed phase starts from.
func (r *runner) initial() error {
	n := len(r.in.Records)
	switch r.cfg.Workload {
	case inputs.Publish:
		r.names = []string{liveDelta, livePaper, liveStream}
		if err := r.publishOp("", liveDelta, "&shardrecords=2000", n, false); err != nil {
			return err
		}
		body, err := r.d.do(http.MethodGet, "/v1/datasets/"+liveDelta+"/stats", nil, http.StatusOK)
		if err == nil {
			r.liveStat, err = withoutVersion(body)
		}
		return err
	case inputs.PublishSafe:
		// A plain publication: the timed phase replaces it with a safe one,
		// and a safe set-up would only repeat the timed operation.
		r.names = []string{liveSafe}
		return r.publishOp("", liveSafe, "", n, false)
	default:
		r.names = []string{livePaper}
		return r.publishOp("", livePaper, "", n, false)
	}
}

// publishOp publishes the run's records and checks the answer; an empty
// kind leaves the latency unrecorded (set-up times itself).
func (r *runner) publishOp(kind, name, params string, records int, streamed bool) error {
	f := func() error {
		info, err := r.d.publish(name, r.in.Text, r.cfg.Seed, params)
		if err != nil {
			return err
		}
		return checkPublish(info, records, streamed)
	}
	if kind == "" {
		r.res.attempted++
		return f()
	}
	return r.op(kind, f)
}

// timedPublish runs publish cycles until the timed phase is over: an
// in-memory republish of the paper's pipeline, a streamed republish under a
// 1 MiB budget, and append/remove pairs of held-out records on the sharded
// live dataset.
func (r *runner) timedPublish() error {
	n := len(r.in.Records)
	for len(r.ops) < minOps || r.busy < r.seconds() {
		err := r.timed(func() error {
			t0 := time.Now()
			if err := r.publishOp("publish", livePaper, "&replace=1", n, false); err != nil {
				return err
			}
			if err := r.publishOp("stream", liveStream, "&replace=1&stream=1&membudget=1M", n, true); err != nil {
				return err
			}
			for _, text := range r.in.DeltaTexts {
				b := r.cfg.DeltaBatch
				for _, remove := range []bool{false, true} {
					err := r.op("delta", func() error {
						info, err := r.d.delta(liveDelta, text, remove)
						if err != nil {
							return err
						}
						if remove {
							return checkDelta(info, 0, b, n)
						}
						return checkDelta(info, b, 0, n+b)
					})
					if err != nil {
						return err
					}
				}
			}
			r.ops = append(r.ops, ms(time.Since(t0)))
			return nil
		})
		if err != nil {
			return err
		}
	}
	// Every pair restored the original records, so the live publication
	// must again be the one set-up made (delta ≡ scratch).
	r.res.attempted++
	body, err := r.d.do(http.MethodGet, "/v1/datasets/"+liveDelta+"/stats", nil, http.StatusOK)
	if err != nil {
		return err
	}
	if s, err := withoutVersion(body); err != nil || !bytes.Equal(s, r.liveStat) {
		return fmt.Errorf("after append/remove pairs %q differs from its initial publication: %s vs %s (%v)", liveDelta, s, r.liveStat, err)
	}
	return nil
}

// timedSafe runs safe republishes, each followed by the breach audit that
// must come back clean.
func (r *runner) timedSafe() error {
	n := len(r.in.Records)
	for len(r.ops) < minOps || r.busy < r.seconds() {
		err := r.timed(func() error {
			t0 := time.Now()
			if err := r.publishOp("publish", liveSafe, "&replace=1&safe=1", n, false); err != nil {
				return err
			}
			err := r.op("audit", func() error {
				body, err := r.d.do(http.MethodGet, "/v1/datasets/"+liveSafe+"/breaches", nil, http.StatusOK)
				if err != nil {
					return err
				}
				return checkAudit(body)
			})
			if err != nil {
				return err
			}
			r.ops = append(r.ops, ms(time.Since(t0)))
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// minOps is the fewest operations a publish workload's timed phase runs, so
// that op_p50_ms is a median of at least three even when the machine is
// slow: a safe publish can take more than a third of the phase.
const minOps = 3

func (r *runner) seconds() time.Duration {
	return time.Duration(r.cfg.Seconds * float64(time.Second))
}

// readSlice is how long the read clients run between two samples of the
// speed reference.
const readSlice = 2 * time.Second

// timedRead runs the closed-loop clients through an untimed warm-up and
// then the timed phase, in slices with a reference sample between them.
// Each client sends its next batch only after the previous answer arrived
// and checked out.
func (r *runner) timedRead() error {
	gens := make([]*inputs.QueryGen, r.cfg.Clients)
	for c := range gens {
		gens[c] = r.in.Queries(c)
	}
	warm := time.Duration(r.cfg.Warmup * float64(time.Second))
	counts := make([]int, r.cfg.Clients)
	if _, err := r.readPhase(gens, warm, counts); err != nil {
		return err
	}
	for r.busy < r.seconds() {
		err := r.timed(func() error {
			lat, err := r.readPhase(gens, min(readSlice, r.seconds()-r.busy), counts)
			for _, l := range lat {
				r.ops = append(r.ops, l...)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	r.loadStats(counts)
	return nil
}

// readPhase runs every client for dur and returns each one's batch
// latencies (ms); counts accumulates the batches each client completed.
func (r *runner) readPhase(gens []*inputs.QueryGen, dur time.Duration, counts []int) ([][]float64, error) {
	deadline := time.Now().Add(dur)
	lat := make([][]float64, len(gens))
	errs := make([]error, len(gens))
	attempts := make([]int, len(gens))
	var wg sync.WaitGroup
	for c := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				b := gens[c].Batch(r.cfg.Batch)
				attempts[c]++
				req, err := supportRequest(b)
				if err != nil {
					errs[c] = err
					return
				}
				t0 := time.Now()
				body, err := r.d.supportRaw(livePaper, req)
				d := time.Since(t0)
				var ests []estimate
				if err == nil {
					ests, err = decodeEstimates(body)
				}
				if err == nil {
					err = checkEstimates(b, ests)
				}
				if err != nil {
					errs[c] = err
					return
				}
				lat[c] = append(lat[c], ms(d))
				counts[c]++
			}
		}()
	}
	wg.Wait()
	for c := range gens {
		r.res.attempted += attempts[c]
	}
	return lat, errors.Join(errs...)
}

// loadStats replays each client's stream up to the batches it completed
// (warm-up included) and measures how much of the traffic repeated — the
// outside view of what a support cache can hit.
func (r *runner) loadStats(counts []int) {
	seen := map[uint64]bool{}
	total := 0
	var buf [4]byte
	for c, n := range counts {
		g := r.in.Queries(c)
		for i := 0; i < n; i++ {
			for _, s := range g.Batch(r.cfg.Batch) {
				h := fnv.New64a()
				for _, t := range s {
					binary.LittleEndian.PutUint32(buf[:], uint32(t))
					h.Write(buf[:])
				}
				seen[h.Sum64()] = true
				total++
			}
		}
	}
	r.res.distinctQueries = len(seen)
	if total > 0 {
		r.res.repeatFrac = 1 - float64(len(seen))/float64(total)
	}
}

// probeSet is one dataset's answers before a restart.
type probeSet struct {
	stats   []byte
	answers [][]byte
}

// probeBatches splits the probe itemsets into request-sized batches.
func (r *runner) probeBatches() [][][]dataset.Term {
	var out [][][]dataset.Term
	for lo := 0; lo < len(r.in.Probes); lo += r.cfg.Batch {
		out = append(out, r.in.Probes[lo:min(lo+r.cfg.Batch, len(r.in.Probes))])
	}
	return out
}

// probe checks every probe itemset against the original records on every
// dataset and returns the raw answers for the restart comparison.
func (r *runner) probe() (map[string]probeSet, error) {
	var digest probeDigest
	pre := map[string]probeSet{}
	for _, name := range r.names {
		var ps probeSet
		r.res.attempted++
		stats, err := r.d.do(http.MethodGet, "/v1/datasets/"+name+"/stats", nil, http.StatusOK)
		if err != nil {
			return nil, err
		}
		ps.stats = stats
		var all []estimate
		for _, batch := range r.probeBatches() {
			r.res.attempted++
			body, ests, err := r.d.support(name, batch)
			if err != nil {
				return nil, err
			}
			ps.answers = append(ps.answers, body)
			all = append(all, ests...)
		}
		if err := checkTruth(r.in.Records, r.in.Probes, all); err != nil {
			return nil, fmt.Errorf("dataset %q: %w", name, err)
		}
		if err := digest.add(name, stats, all); err != nil {
			return nil, err
		}
		pre[name] = ps
	}
	r.res.probeFP = digest.sum()
	return pre, nil
}

// restarts stops the server with SIGTERM and times each restart from exec
// to the first answered batch on every recovered dataset. Afterwards (off
// the clock) each dataset's stats and probe answers must be byte-equal to
// the ones from before the first restart.
func (r *runner) restarts(pre map[string]probeSet) error {
	first := r.probeBatches()[0]
	for i := 0; i < r.cfg.Restarts; i++ {
		err := r.d.stop()
		r.d = nil
		if err != nil {
			return err
		}
		if i%2 == 0 {
			r.sampleRef("restart")
		}
		err = r.op("recover", func() error {
			d, err := startDaemon(r.bin, r.dataDir, r.tmpDir)
			if err != nil {
				return err
			}
			r.d = d
			for _, name := range r.names {
				_, ests, err := d.support(name, first)
				if err == nil {
					err = checkEstimates(first, ests)
				}
				if err != nil {
					return fmt.Errorf("dataset %q: %w", name, err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, name := range r.names {
			if err := r.sameAfterRestart(name, pre[name]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *runner) sameAfterRestart(name string, ps probeSet) error {
	r.res.attempted++
	stats, err := r.d.do(http.MethodGet, "/v1/datasets/"+name+"/stats", nil, http.StatusOK)
	if err != nil {
		return err
	}
	if !bytes.Equal(stats, ps.stats) {
		return fmt.Errorf("dataset %q: stats changed across restart:\n%s\nvs\n%s", name, stats, ps.stats)
	}
	for i, batch := range r.probeBatches() {
		r.res.attempted++
		body, _, err := r.d.support(name, batch)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, ps.answers[i]) {
			return fmt.Errorf("dataset %q: probe batch %d answers differ across restart", name, i)
		}
	}
	return nil
}

// summarize turns the samples into the end-to-end metrics and the
// per-kind detail lines. Every time is divided by the reference's slowdown
// in its own phase (see speedRef); the raw end-to-end values and the
// reference medians follow as detail lines.
func (r *runner) summarize() {
	res := r.res
	k := res.kinds
	setup, timed, restart := slowdown(k["ref.setup"]), slowdown(k["ref.timed"]), slowdown(k["ref.restart"])
	raw := map[string]float64{
		"setup_s":    median(k["setup"]) / 1000,
		"op_p50_ms":  median(r.ops),
		"ops_per_s":  float64(len(r.ops)) / res.timedPhaseSeconds,
		"recover_ms": median(k["recover"]),
	}
	res.metrics = map[string]float64{
		"setup_s":        raw["setup_s"] / setup,
		"op_p50_ms":      raw["op_p50_ms"] / timed,
		"ops_per_s":      raw["ops_per_s"] * timed,
		"recover_ms":     raw["recover_ms"] / restart,
		"server_rss_mib": r.rss,
	}
	res.n = map[string]int{
		"setup_s": len(k["setup"]), "op_p50_ms": len(r.ops), "ops_per_s": len(r.ops),
		"recover_ms": len(k["recover"]), "server_rss_mib": r.nRSS,
	}
	add := func(name string, v float64, unit string, n int) {
		res.details = append(res.details, fmt.Sprintf("%s %s %.6g %s n=%d", res.workload, name, v, unit, n))
	}
	switch r.cfg.Workload {
	case inputs.Publish:
		add("publish_s", median(k["publish"])/1000/timed, "s", len(k["publish"]))
		add("publish_stream_s", median(k["stream"])/1000/timed, "s", len(k["stream"]))
		add("delta_ms", median(k["delta"])/timed, "ms", len(k["delta"]))
	case inputs.PublishSafe:
		add("publish_safe_s", median(k["publish"])/1000/timed, "s", len(k["publish"]))
		add("audit_ms", median(k["audit"])/timed, "ms", len(k["audit"]))
	default:
		add("read_qps", res.metrics["ops_per_s"]*float64(r.cfg.Batch), "queries/s", len(r.ops)*r.cfg.Batch)
		add("read_p99_ms", percentile(r.ops, 0.99)/timed, "ms", len(r.ops))
	}
	add("error_frac", float64(res.failed)/float64(max(res.attempted, 1)), "ratio", res.attempted)
	for _, m := range [][2]string{{"setup_s", "s"}, {"op_p50_ms", "ms"}, {"ops_per_s", "1/s"}, {"recover_ms", "ms"}} {
		add("raw."+m[0], raw[m[0]], m[1], res.n[m[0]])
	}
	for _, phase := range []string{"setup", "timed", "restart"} {
		add("ref_ms."+phase, median(k["ref."+phase]), "ms", len(k["ref."+phase]))
	}
}
