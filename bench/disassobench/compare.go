package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"disasso/bench/internal/inputs"
)

// compareRuns reads saved outputs of two commits and prints, for every
// workload × end-to-end metric, each side's median and quartiles, the
// pairwise win count and a verdict. Files are split into the two sides by
// directory, so `-compare A/*.out B/*.out` works after shell expansion: the
// first directory named is the parent (A), the second the change (B). Runs
// pair up in file-name order within each side.
func compareRuns(e *env, files []string) error {
	var dirs []string
	side := map[string][]string{}
	for _, f := range files {
		d := filepath.Dir(f)
		if _, ok := side[d]; !ok {
			dirs = append(dirs, d)
		}
		side[d] = append(side[d], f)
	}
	if len(dirs) != 2 {
		return fmt.Errorf("-compare needs the outputs of exactly two directories, got %d", len(dirs))
	}
	a, err := readRuns(e.spec, side[dirs[0]])
	if err != nil {
		return err
	}
	b, err := readRuns(e.spec, side[dirs[1]])
	if err != nil {
		return err
	}
	fmt.Fprintf(e.stdout, "A = %s (%d files), B = %s (%d files)\n", dirs[0], len(side[dirs[0]]), dirs[1], len(side[dirs[1]]))
	fmt.Fprintf(e.stdout, "%-14s %-16s %-34s %-34s %-7s %-8s %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "change", "verdict")
	for _, w := range inputs.Workloads {
		for _, m := range e.spec.EndToEnd {
			av, bv := a[runKey{w, m.Name}], b[runKey{w, m.Name}]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			c := compareMetric(av, bv, m)
			fmt.Fprintf(e.stdout, "%-14s %-16s %-34s %-34s %-7s %+7.2f%% %s\n", w, m.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", c.medA, c.q1A, c.q3A),
				fmt.Sprintf("%.5g [%.5g, %.5g]", c.medB, c.q1B, c.q3B),
				fmt.Sprintf("%d/%d", c.wins, c.pairs), 100*(c.medB-c.medA)/c.medA, c.verdict)
		}
	}
	return nil
}

type runKey struct{ workload, metric string }

// readRuns collects, in file order, the values of the end-to-end metric
// lines ("workload metric value unit ...") of saved outputs.
func readRuns(s spec, files []string) (map[runKey][]float64, error) {
	units := map[string]string{}
	for _, m := range s.EndToEnd {
		units[m.Name] = m.Unit
	}
	values := map[runKey][]float64{}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) < 4 || units[fields[1]] != fields[3] {
				continue
			}
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				continue
			}
			k := runKey{fields[0], fields[1]}
			values[k] = append(values[k], v)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return values, nil
}

// comparison is one workload × metric row.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	wins, pairs    int
	verdict        string
}

// minPairs is the fewest pairs a gain may rest on.
const minPairs = 10

// compareMetric gives the first verdict whose rule holds:
//   - improved: at least minPairs pairs, of which B wins at least nine
//     tenths (ties count for neither), and the medians differ, in B's
//     favour, by more than the spread between A's own runs (its
//     interquartile distance);
//   - unresolved: either side's relative spread is wider than the metric's
//     bound, unless every B run reads better than every A run;
//   - regressed: B's median is worse than A's by more than the bound;
//   - no worse: anything else.
func compareMetric(a, b []float64, m metricSpec) comparison {
	c := comparison{medA: median(a), medB: median(b)}
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	c.pairs = min(len(a), len(b))
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := (c.medB - c.medA) / c.medA
	if m.Better == "higher" {
		worse = -worse
	}
	spread := max((c.q3A-c.q1A)/c.medA, (c.q3B-c.q1B)/c.medB)
	switch {
	case c.pairs >= minPairs && 10*c.wins >= 9*c.pairs && better(c.medB, c.medA) && math.Abs(c.medB-c.medA) > c.q3A-c.q1A:
		c.verdict = "improved"
	case spread > m.Bound && !allBetter:
		c.verdict = "unresolved"
	case worse > m.Bound:
		c.verdict = "regressed"
	default:
		c.verdict = "no worse"
	}
	return c
}
