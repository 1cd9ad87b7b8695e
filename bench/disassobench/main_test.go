package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"disasso/bench/internal/inputs"
	"disasso/internal/dataset"
)

// tiny shrinks a workload to a smoke-test size with 1 s phases.
func tiny(t *testing.T, workload string) inputs.Config {
	t.Helper()
	cfg, err := inputs.Default(workload, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Records, cfg.Probes, cfg.Setups, cfg.Restarts = 2000, 32, 1, 1
	if cfg.DeltaBatch > 0 {
		cfg.DeltaBatch, cfg.DeltaPairs = 10, 1
	}
	if cfg.IsRead() {
		cfg.Warmup, cfg.ReplayOps = 0.2, 5
	}
	return cfg
}

// smokeEnv builds disassod from the repository this module sits in.
func smokeEnv(t *testing.T) (*env, *bytes.Buffer) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds disassod and runs every workload")
	}
	t.Chdir(filepath.Join("..", ".."))
	var out, errs bytes.Buffer
	e, err := newEnv(&out, &errs)
	if err != nil {
		t.Fatal(err)
	}
	e.pins = nil // pins hold for the default sizes only
	if err := e.buildDaemon(); err != nil {
		t.Fatalf("%v\n%s", err, errs.String())
	}
	return e, &out
}

// lastResult decodes the result object on the output's last line.
func lastResult(t *testing.T, out string) (correct bool, failed int, metrics map[string]any) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result object: %v\n%s", err, out)
	}
	if res.Attempted < 1 {
		t.Errorf("attempted = %d", res.Attempted)
	}
	return res.Correct, res.Failed, res.Metrics
}

// TestSmoke runs every workload in both modes at a tiny size and checks that
// each metric BENCHMARK.json lists is printed with its unit, that nothing
// failed, and that the result object carries exactly the listed metrics.
func TestSmoke(t *testing.T) {
	e, out := smokeEnv(t)
	for _, w := range inputs.Workloads {
		for _, trace := range []bool{false, true} {
			out.Reset()
			ok := e.runOne(tiny(t, w), trace, filepath.Join(t.TempDir(), "spans.json"))
			text := out.String()
			if !ok {
				t.Fatalf("%s trace=%v failed:\n%s", w, trace, text)
			}
			list := e.spec.EndToEnd
			if trace {
				list = e.spec.PerLayer
			}
			correct, failed, metrics := lastResult(t, text)
			if !correct || failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d", w, trace, correct, failed)
			}
			if len(metrics) != len(list) {
				t.Errorf("%s trace=%v: result has %d metrics, BENCHMARK.json lists %d", w, trace, len(metrics), len(list))
			}
			units := map[string]string{}
			for _, line := range strings.Split(text, "\n") {
				if f := strings.Fields(line); len(f) >= 4 && f[0] == w {
					units[f[1]] = f[3]
				}
			}
			for _, m := range list {
				if units[m.Name] != m.Unit {
					t.Errorf("%s trace=%v: no line %q with unit %s", w, trace, m.Name, m.Unit)
				}
				if _, ok := metrics[m.Name]; !ok {
					t.Errorf("%s trace=%v: result object lacks %s", w, trace, m.Name)
				}
			}
			if !strings.Contains(text, fmt.Sprintf("\n%s error_frac 0 ratio", w)) {
				t.Errorf("%s trace=%v: error_frac is not 0:\n%s", w, trace, text)
			}
		}
	}
}

// TestWrongFingerprintFailsRun checks that an input that no longer matches
// its pin fails the run: correct=false, no metrics.
func TestWrongFingerprintFailsRun(t *testing.T) {
	e, out := smokeEnv(t)
	cfg := tiny(t, inputs.PublishSafe)
	e.pins = fingerprints{inputs.PublishSafe: {Input: strings.Repeat("0", 64)}}
	if e.runOne(cfg, false, "") {
		t.Fatal("run with a wrong input fingerprint passed")
	}
	correct, _, metrics := lastResult(t, out.String())
	if correct || len(metrics) != 0 {
		t.Errorf("failed run printed correct=%v with %d metrics", correct, len(metrics))
	}
	if err := e.pins.check(inputs.PublishSafe, "input", "ab"); err == nil ||
		!strings.Contains(err.Error(), "workload publish-safe: input fingerprint") {
		t.Errorf("mismatch error does not name workload and artifact: %v", err)
	}
}

func TestCheckTruthRejectsSmallUpper(t *testing.T) {
	recs := []dataset.Record{{1, 2}, {1, 2, 3}, {1}, {2, 3}}
	probes := [][]dataset.Term{{1}, {2, 3}}
	good := []estimate{
		{Itemset: probes[0], Lower: 2, Expected: 3, Upper: 4},
		{Itemset: probes[1], Lower: 0, Expected: 1.5, Upper: 2},
	}
	if err := checkTruth(recs, probes, good); err != nil {
		t.Fatalf("correct bounds rejected: %v", err)
	}
	small := []estimate{good[0], {Itemset: probes[1], Lower: 0, Expected: 1, Upper: 1}}
	if err := checkTruth(recs, probes, small); err == nil {
		t.Error("Upper below the true support (2) accepted")
	}
	disordered := []estimate{{Itemset: probes[0], Lower: 2, Expected: 4.5, Upper: 4}, good[1]}
	if err := checkTruth(recs, probes, disordered); err == nil {
		t.Error("Expected above Upper accepted")
	}
}

func TestCheckAuditRejectsBreach(t *testing.T) {
	clean := `{"name":"safe","report":{"k":5,"m":2,"clusters":9,"breachedClusters":0,"findings":[]}}`
	if err := checkAudit([]byte(clean)); err != nil {
		t.Fatalf("clean audit rejected: %v", err)
	}
	breached := `{"name":"safe","report":{"breachedClusters":1,"findings":[{"cluster":3,"anchor":1,"learned":2,"num":1,"den":2}]}}`
	if err := checkAudit([]byte(breached)); err == nil {
		t.Error("breached audit accepted")
	}
}

func TestCheckDelta(t *testing.T) {
	info := deltaInfo{datasetInfo: datasetInfo{Records: 1050}, Appended: 50}
	if err := checkDelta(info, 50, 0, 1050); err != nil {
		t.Fatal(err)
	}
	if err := checkDelta(info, 49, 0, 1049); err == nil {
		t.Error("wrong batch size accepted")
	}
	if err := checkDelta(info, 50, 0, 1000); err == nil {
		t.Error("wrong record count accepted")
	}
}

// TestQuartilesMatchPython pins the quartile method to the values Python's
// statistics.quantiles(data, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"faster everywhere", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "improved"},
		{"same", []float64{100, 99, 101, 100, 98, 102, 100, 99, 101, 100}, "no worse"},
		{"slower by 20%", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "regressed"},
		{"too noisy to tell", []float64{60, 140, 70, 150, 100, 65, 145, 100, 55, 150}, "unresolved"},
	} {
		if got := compareMetric(a, c.b, lower).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	if got := compareMetric(a, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, higher).verdict; got != "regressed" {
		t.Errorf("lower throughput: verdict %q, want regressed", got)
	}
}
