// Command disassobench is the repository's end-to-end benchmark. It builds
// cmd/disassod from the checkout it runs in, drives it over loopback HTTP
// through four workloads, checks every answer, and prints each metric named
// in BENCHMARK.json. Run it from the repository root:
//
//	bash bench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//	bash bench/run.sh --compare A/*.out B/*.out
//
// Without --workload all four workloads run in turn. Every run prints one
// line per metric ("workload metric value unit n=samples") and, last, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 1
// the run is followed by an in-process traced replay of the same operations
// and the JSON carries the per-layer metrics instead of the end-to-end ones;
// --trace-out names the span file it leaves behind. A failed check prints
// the reason on standard error, a JSON object with correct=false and no
// metrics, and exits 1. See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"disasso/bench/internal/inputs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the metric lists
// it must print and the run length.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

// env is what every workload run of one invocation shares.
type env struct {
	root   string // repository checkout
	build  string // root/.bench_build
	bin    string // the disassod binary under test
	spec   spec
	pins   fingerprints
	stdout io.Writer
	stderr io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("disassobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(inputs.Workloads, ", ")+" (default all)")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 0, "length of each timed phase (default BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1 adds the traced replay and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "span file of the traced replay (default .bench_build/trace/WORKLOAD-seedN.json)")
	compare := fs.Bool("compare", false, "compare saved outputs of two commits: -compare A/*.out B/*.out")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "disassobench: --trace must be 0 or 1")
		return 2
	}
	e, err := newEnv(stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "disassobench:", err)
		return 1
	}
	if *compare {
		if err := compareRuns(e, fs.Args()); err != nil {
			fmt.Fprintln(stderr, "disassobench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "disassobench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	secs := *seconds
	if secs <= 0 {
		secs = float64(e.spec.RunSeconds)
	}
	names := inputs.Workloads
	if *workload != "" {
		names = []string{*workload}
	}
	var cfgs []inputs.Config
	for _, w := range names {
		cfg, err := inputs.Default(w, *seed, secs)
		if err != nil {
			fmt.Fprintln(stderr, "disassobench:", err)
			return 2
		}
		cfgs = append(cfgs, cfg)
	}
	if err := e.buildDaemon(); err != nil {
		fmt.Fprintln(stderr, "disassobench:", err)
		return 1
	}
	if *seed != 1 {
		e.pins = nil // fingerprints are pinned for the default seed only
	}
	code := 0
	for _, cfg := range cfgs {
		out := *traceOut
		if out == "" {
			out = filepath.Join(e.build, "trace", fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed))
		}
		if !e.runOne(cfg, *trace == 1, out) {
			code = 1
		}
	}
	return code
}

// newEnv locates the checkout (the working directory) and reads the
// benchmark's own files from it.
func newEnv(stdout, stderr io.Writer) (*env, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for _, p := range []string{"go.mod", "cmd/disassod", "BENCHMARK.json"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return nil, fmt.Errorf("run from the repository root: %w", err)
		}
	}
	e := &env{root: root, build: filepath.Join(root, ".bench_build"), stdout: stdout, stderr: stderr}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &e.spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if e.pins, err = loadFingerprints(filepath.Join(root, "bench", "fingerprints.json")); err != nil {
		return nil, err
	}
	return e, nil
}

// goBuild builds a main package into .bench_build.
func (e *env) goBuild(dir, pkg, out string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	cmd.Stdout = e.stderr
	cmd.Stderr = e.stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s: %w", pkg, err)
	}
	return nil
}

// buildDaemon builds the disassod under test from the checkout.
func (e *env) buildDaemon() error {
	e.bin = filepath.Join(e.build, "disassod")
	return e.goBuild(e.root, "./cmd/disassod", e.bin)
}

// runOne runs one workload, prints its metrics and result object, and
// reports whether it passed.
func (e *env) runOne(cfg inputs.Config, trace bool, traceOut string) bool {
	metrics, res, err := e.measure(cfg, trace, traceOut)
	attempted, failed := 1, 1
	if res != nil {
		attempted, failed = max(res.attempted, 1), res.failed
	}
	if err != nil {
		fmt.Fprintf(e.stderr, "disassobench: workload %s seed %d: %v\n", cfg.Workload, cfg.Seed, err)
		e.printResult(false, attempted, max(failed, 1), nil)
		return false
	}
	e.printResult(true, attempted, failed, metrics)
	return true
}

// measure runs the untraced workload and, when asked, the traced replay,
// and returns the metrics the run reports (end-to-end or per-layer).
func (e *env) measure(cfg inputs.Config, trace bool, traceOut string) (map[string]any, *result, error) {
	if err := os.MkdirAll(e.build, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(e.build, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	res, err := runWorkload(cfg, e.bin, dir, e.pins)
	if err != nil {
		return nil, res, err
	}
	fmt.Fprintf(e.stdout, "%s fingerprint input %s\n%s fingerprint probes %s\n", cfg.Workload, res.inputFP, cfg.Workload, res.probeFP)
	values, list := res.metrics, e.spec.EndToEnd
	var lines []string
	if trace {
		sf, err := e.replay(cfg, dir, traceOut)
		if err != nil {
			return nil, res, fmt.Errorf("traced replay: %w", err)
		}
		values, lines = layerMetrics(sf, res)
		list = e.spec.PerLayer
	}
	metrics := map[string]any{}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return nil, res, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, res, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		n := ""
		if c, ok := res.n[m.Name]; ok && !trace {
			n = fmt.Sprintf(" n=%d", c)
		}
		fmt.Fprintf(e.stdout, "%s %s %v %s%s\n", cfg.Workload, m.Name, v, m.Unit, n)
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	for _, l := range append(res.details, lines...) {
		fmt.Fprintln(e.stdout, l)
	}
	return metrics, res, nil
}

// printResult writes the result object as the last line of the output.
func (e *env) printResult(correct bool, attempted, failed int, metrics map[string]any) {
	if metrics == nil {
		metrics = map[string]any{}
	}
	b, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		// Only finite numbers reach here; a failure is a bug in this file.
		panic(errors.Join(errors.New("encoding result"), err))
	}
	fmt.Fprintf(e.stdout, "%s\n", b)
}
