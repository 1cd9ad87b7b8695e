package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// writeTestData renders a small random dataset file in the upload format.
func writeTestData(t *testing.T, n, domain, maxLen int) string {
	t.Helper()
	rng := rand.New(rand.NewPCG(5, 0x10AD8E4C4))
	var b strings.Builder
	for i := 0; i < n; i++ {
		seen := map[int]bool{}
		for j := 0; j < 1+rng.IntN(maxLen); j++ {
			v := rng.IntN(domain)
			if seen[v] {
				continue
			}
			if len(seen) > 0 {
				b.WriteByte(' ')
			}
			seen[v] = true
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "data.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadbenchInprocessSmoke runs the whole driver against an in-process
// disassod: a bounded request budget, mixed ops including churn, bench
// output on. The run must finish with zero errors and emit lines in the
// go test -bench format (even field count, integer iteration counts).
func TestLoadbenchInprocessSmoke(t *testing.T) {
	cfg := config{
		data:      writeTestData(t, 200, 50, 6),
		inprocess: true,
		name:      "smoke",
		k:         3, m: 2,
		seed:     1,
		clients:  4,
		requests: 400,
		duration: 30 * time.Second, // budget-bound; the duration is a backstop
		benchFmt: true,
		label:    "Smoke",
	}
	var out, logw bytes.Buffer
	if err := run(cfg, &out, &logw); err != nil {
		t.Fatalf("run: %v\nlog:\n%s", err, logw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("want ≥ 2 bench lines, got %q", out.String())
	}
	totalOps := int64(0)
	for _, line := range lines {
		fields := strings.Fields(line)
		if !strings.HasPrefix(fields[0], "BenchmarkSmoke/") {
			t.Errorf("bench line %q lacks the label prefix", line)
		}
		if len(fields) < 4 || len(fields)%2 != 0 {
			t.Errorf("bench line %q not in the go test -bench format (%d fields)", line, len(fields))
			continue
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Errorf("bench line %q: bad iteration count: %v", line, err)
		}
		if strings.HasPrefix(fields[0], "BenchmarkSmoke/total-") {
			totalOps = n
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if _, err := strconv.ParseFloat(fields[i], 64); err != nil {
				t.Errorf("bench line %q: metric %q not numeric", line, fields[i])
			}
		}
		if strings.Contains(line, "errors") {
			for i := 2; i+1 < len(fields); i += 2 {
				if fields[i+1] == "errors" && fields[i] != "0" {
					t.Errorf("bench line %q reports errors", line)
				}
			}
		}
	}
	if totalOps == 0 {
		t.Error("no total line emitted")
	}
	if totalOps > 400 {
		t.Errorf("request budget exceeded: %d ops", totalOps)
	}
	if !strings.Contains(logw.String(), "total:") {
		t.Errorf("human summary missing from log:\n%s", logw.String())
	}
}

// TestLoadbenchBatchBudget: -requests bounds individual workload queries
// even when batching coalesces them into fewer POSTs.
func TestLoadbenchBatchBudget(t *testing.T) {
	cfg := config{
		data:      writeTestData(t, 150, 40, 5),
		inprocess: true,
		name:      "budget",
		k:         3, m: 2,
		seed:     3,
		mix:      "singleton zipf=1.2; itemset min=2 max=2",
		clients:  2,
		requests: 100,
		duration: 30 * time.Second, // backstop; the budget must stop the run
		batch:    16,
	}
	var out, logw bytes.Buffer
	if err := run(cfg, &out, &logw); err != nil {
		t.Fatalf("run: %v\nlog:\n%s", err, logw.String())
	}
	m := regexp.MustCompile(`total: (\d+) requests \((\d+) queries\)`).FindStringSubmatch(logw.String())
	if m == nil {
		t.Fatalf("no total line in log:\n%s", logw.String())
	}
	requests, _ := strconv.ParseInt(m[1], 10, 64)
	queries, _ := strconv.ParseInt(m[2], 10, 64)
	if queries == 0 || queries > 100 {
		t.Errorf("budget of 100 queries produced %d", queries)
	}
	if requests > queries {
		t.Errorf("more requests (%d) than queries (%d)", requests, queries)
	}
	if requests == queries {
		t.Errorf("batching never coalesced: %d requests for %d queries", requests, queries)
	}
}

// TestLoadbenchConfigValidation: bad configurations fail fast, before any
// anonymization work.
func TestLoadbenchConfigValidation(t *testing.T) {
	base := config{data: "x.txt", inprocess: true, clients: 1, duration: time.Second, name: "d", k: 3, m: 2}
	cases := []struct {
		name string
		mod  func(*config)
	}{
		{"no data", func(c *config) { c.data = "" }},
		{"addr and inprocess", func(c *config) { c.addr = "http://x" }},
		{"no target", func(c *config) { c.inprocess = false }},
		{"zero clients", func(c *config) { c.clients = 0 }},
		{"no stop condition", func(c *config) { c.duration = 0; c.requests = 0 }},
		{"negative rate", func(c *config) { c.rate = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mod(&cfg)
			var out, logw bytes.Buffer
			if err := run(cfg, &out, &logw); err == nil {
				t.Error("bad config accepted")
			}
		})
	}
}

// TestLoadbenchOpenLoopAndSpecFile exercises the open-loop pacing path and
// a mix spec loaded from a file.
func TestLoadbenchOpenLoopAndSpecFile(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "mix.spec")
	if err := os.WriteFile(specPath, []byte("singleton zipf=1.2\nitemset min=2 max=2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{
		data:      writeTestData(t, 120, 40, 5),
		inprocess: true,
		name:      "openloop",
		k:         3, m: 2,
		seed:     2,
		specFile: specPath,
		clients:  2,
		rate:     400,
		duration: 400 * time.Millisecond,
	}
	var out, logw bytes.Buffer
	if err := run(cfg, &out, &logw); err != nil {
		t.Fatalf("run: %v\nlog:\n%s", err, logw.String())
	}
	log := logw.String()
	if !strings.Contains(log, "singleton") || !strings.Contains(log, "itemset") {
		t.Errorf("per-endpoint rows missing:\n%s", log)
	}
	// Open loop at 400 ops/s for 0.4s ≈ 160 ops; closed loop on this tiny
	// dataset would do thousands. Allow generous slack either way.
	if strings.Contains(log, "total: 0 requests") {
		t.Errorf("no requests recorded:\n%s", log)
	}
}
