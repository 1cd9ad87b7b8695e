package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"

	"disasso/bench/internal/inputs"
	"disasso/bench/internal/spans"
)

// replay builds and runs the traced replay of cfg's workload and reads back
// its spans, which it leaves at out.
func (e *env) replay(cfg inputs.Config, dir, out string) (*spans.File, error) {
	bin := filepath.Join(e.build, "disassoreplay")
	if err := e.goBuild(filepath.Join(e.root, "bench"), "./replay", bin); err != nil {
		return nil, err
	}
	cfgPath := filepath.Join(dir, "replay-config.json")
	b, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(cfgPath, b, 0o644); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-config", cfgPath, "-dir", filepath.Join(dir, "replay"), "-out", out)
	cmd.Stdout = e.stderr
	cmd.Stderr = e.stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	b, err = os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	var sf spans.File
	if err := json.Unmarshal(b, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", out, err)
	}
	return &sf, nil
}

// spanIndex groups spans by name, with each span's self time: its duration
// minus the time its child spans cover (children never overlap in the
// single-threaded replay, so that is the sum of their durations).
type spanIndex struct {
	byName map[string][]spans.Span
	self   map[int32]int64
}

func indexSpans(ss []spans.Span) *spanIndex {
	ix := &spanIndex{byName: map[string][]spans.Span{}, self: map[int32]int64{}}
	for _, s := range ss {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		ix.self[s.ID] += s.End - s.Start
		if s.Parent >= 0 {
			ix.self[s.Parent] -= s.End - s.Start
		}
	}
	return ix
}

// where returns the named spans whose count key equals v.
func (ix *spanIndex) where(name, key string, v int64) []spans.Span {
	var out []spans.Span
	for _, s := range ix.byName[name] {
		if s.Counts[key] == v {
			out = append(out, s)
		}
	}
	return out
}

// selfMedian is the median self time of the spans, in units of div
// nanoseconds.
func (ix *spanIndex) selfMedian(ss []spans.Span, div float64) float64 {
	var xs []float64
	for _, s := range ss {
		xs = append(xs, float64(ix.self[s.ID])/div)
	}
	return median(xs)
}

// durMedian is the median duration of the spans in ms.
func durMedian(ss []spans.Span) float64 {
	var xs []float64
	for _, s := range ss {
		xs = append(xs, float64(s.End-s.Start)/1e6)
	}
	return median(xs)
}

// countMedian is the median of one count over the spans.
func countMedian(ss []spans.Span, key string) float64 {
	var xs []float64
	for _, s := range ss {
		xs = append(xs, float64(s.Counts[key]))
	}
	return median(xs)
}

// countSum sums one count over the spans.
func countSum(ss []spans.Span, key string) float64 {
	var n float64
	for _, s := range ss {
		n += float64(s.Counts[key])
	}
	return n
}

// unattributed pairs each kind of untraced request (result.kinds) with the
// top-level or request span the replay records for it.
var unattributed = [][2]string{
	{"op", "op"}, {"publish", "req.publish"}, {"stream", "req.stream"}, {"delta", "req.delta"},
	{"audit", "req.audit"}, {"setup", "setup"}, {"recover", "recover"},
}

// layerMetrics computes the per-layer metrics of BENCHMARK.json from the
// replay's spans and the untraced run, plus detail lines: the untraced and
// traced medians of every request kind, and every span name's call count
// and median self time.
func layerMetrics(sf *spans.File, res *result) (map[string]float64, []string) {
	ix := indexSpans(sf.Spans)
	const msNS, usNS = 1e6, 1e3
	m := map[string]float64{}
	for _, name := range []string{
		"dataset.read_ids", "core.apply", "core.stats", "core.read_binary", "shard.anonymize",
		"query.build_parts", "query.from_parts", "query.new_estimator", "snapfile.write",
		"snapfile.fsync", "snapfile.rename", "snapfile.open", "query.recovered_estimator",
	} {
		m[name+"_ms"] = ix.selfMedian(ix.byName[name], msNS)
	}
	for _, name := range []string{"query.support_singleton", "query.support_itemset", "qindex.intersect", "query.cold_support"} {
		m[name+"_us"] = ix.selfMedian(ix.byName[name], usNS)
	}
	// Anonymization and audit times are taken over the publications the
	// workload serves (safe ones on publish-safe); the _nosafe variants
	// over those with safe disassociation off.
	safe := int64(0)
	if res.workload == inputs.PublishSafe {
		safe = 1
	}
	m["core.anonymize_ms"] = ix.selfMedian(ix.where("core.anonymize", "safe", safe), msNS)
	m["core.anonymize_nosafe_ms"] = ix.selfMedian(ix.where("core.anonymize", "safe", 0), msNS)
	m["core.safe_repair_share"] = (m["core.anonymize_ms"] - m["core.anonymize_nosafe_ms"]) / m["core.anonymize_ms"]
	m["breach.audit_ms"] = ix.selfMedian(ix.where("breach.audit", "safe", safe), msNS)
	m["breach.findings_nosafe"] = countMedian(ix.where("breach.audit", "safe", 0), "findings")
	m["breach.findings_safe"] = 0
	for _, s := range ix.where("breach.audit", "safe", 1) {
		m["breach.findings_safe"] = max(m["breach.findings_safe"], float64(s.Counts["findings"]))
	}

	apply := ix.byName["core.apply"]
	m["core.apply_dirty_shards"] = countMedian(apply, "dirty")
	m["core.apply_total_shards"] = countMedian(apply, "total")
	m["core.apply_full_frac"] = countSum(apply, "full") / float64(len(apply))
	m["shard.spill_bytes"] = countMedian(ix.byName["shard.anonymize"], "spill_bytes")
	m["shard.shards"] = countMedian(ix.byName["shard.anonymize"], "shards")
	m["query.parts_built"] = countMedian(ix.byName["query.build_parts"], "parts")
	inter := ix.byName["qindex.intersect"]
	m["qindex.postings_visited"] = countMedian(inter, "postings")
	m["qindex.candidates_frac"] = countSum(inter, "candidates") / countSum(inter, "postings")
	m["snapfile.bytes"] = countMedian(ix.byName["snapfile.write"], "bytes")

	var lines []string
	for _, k := range unattributed {
		untraced, traced := res.kinds[k[0]], ix.byName[k[1]]
		if len(untraced) == 0 || len(traced) == 0 {
			continue
		}
		d := median(untraced) - durMedian(traced)
		if k[0] == "op" {
			m["server.unattributed_ms"] = d
		}
		lines = append(lines, fmt.Sprintf("%s server.unattributed_ms.%s %.6g ms untraced_median=%.6g n=%d traced_median=%.6g n=%d",
			res.workload, k[0], d, median(untraced), len(untraced), durMedian(traced), len(traced)))
	}

	m["load.repeat_frac"] = res.repeatFrac
	m["load.distinct_queries"] = float64(res.distinctQueries)
	m["load.client_cpu_frac"] = res.clientCPUFrac
	m["trace.spans"] = float64(len(sf.Spans))
	m["trace.overhead_frac"] = sf.CostNS * float64(len(sf.Spans)) / float64(sf.WallNS)

	names := make([]string, 0, len(ix.byName))
	for name := range ix.byName {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		lines = append(lines, fmt.Sprintf("%s span %s calls=%d self_median_ms=%.6g", res.workload, name, len(ix.byName[name]), ix.selfMedian(ix.byName[name], msNS)))
	}
	return m, lines
}
