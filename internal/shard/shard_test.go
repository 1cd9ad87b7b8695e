package shard

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/quest"
)

// genDataset builds a deterministic random dataset and its text encoding.
func genDataset(t *testing.T, seed uint64, n, domain, maxLen int) (*dataset.Dataset, string) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xABCD))
	var records []dataset.Record
	for i := 0; i < n; i++ {
		terms := make([]dataset.Term, 1+rng.IntN(maxLen))
		for j := range terms {
			terms[j] = dataset.Term(rng.IntN(domain))
		}
		records = append(records, dataset.NewRecord(terms...))
	}
	d := dataset.FromRecords(records)
	var buf bytes.Buffer
	if err := dataset.WriteIDs(&buf, d); err != nil {
		t.Fatal(err)
	}
	return d, buf.String()
}

func inMemoryBinary(t *testing.T, d *dataset.Dataset, opts core.Options) []byte {
	t.Helper()
	a, err := core.Anonymize(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WriteBinary(&buf, a); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runEngine streams text through a fresh engine and returns the engine too,
// so a test can read its counters.
func runEngine(t *testing.T, text string, opts Options) ([]byte, Stats, *engine) {
	t.Helper()
	e := &engine{opts: opts}
	var out bytes.Buffer
	st, err := e.run(strings.NewReader(text), &out)
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), st, e
}

// TestStreamMatchesInMemory is the engine's core contract: for equal
// effective options, AnonymizeStream and core.Anonymize publish identical
// bytes — across memory budgets small enough to force spilling and multiple
// shards, and across worker counts.
func TestStreamMatchesInMemory(t *testing.T) {
	d, text := genDataset(t, 42, 600, 50, 8)
	for _, tc := range []struct {
		name   string
		shardS int
		budget int64
	}{
		{"multi-shard-spill", 80, 4 << 10},
		{"one-shard-spill", 0x7FFFFFFF, 4 << 10},
		{"no-spill", 80, 1 << 30},
		{"tiny-shards", 30, 2 << 10},
		// The root does not fit the planning share and routes through
		// files until a descendant fits and is split in memory. At 12 KiB
		// the root's load starts and is abandoned once its dense bytes
		// pass the share.
		{"mixed-planning", 80, 6 << 10},
		{"mixed-planning-root-load", 80, 12 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			copts := core.Options{K: 3, M: 2, MaxClusterSize: 12, Seed: 7, MaxShardRecords: tc.shardS}
			want := inMemoryBinary(t, d, copts)
			_, rs, err := core.AnonymizeWithState(d, copts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				copts.Parallel = workers
				got, st, e := runEngine(t, text, Options{Core: copts, MemoryBudget: tc.budget, TempDir: t.TempDir()})
				if st.Records != d.Len() {
					t.Errorf("workers=%d: stats report %d records, want %d", workers, st.Records, d.Len())
				}
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d: stream output differs from in-memory path (%d vs %d bytes, %d shards)",
						workers, len(got), len(want), st.Shards)
				}
				if tc.budget <= 12<<10 && !st.Spilled {
					t.Errorf("workers=%d: tiny budget did not spill", workers)
				}
				if tc.name == "multi-shard-spill" && st.Shards < 2 {
					t.Errorf("workers=%d: expected multiple shards, got %d", workers, st.Shards)
				}
				if tc.name == "no-spill" && st.Shards != rs.NumShards() {
					t.Errorf("workers=%d: stats report %d shards, the in-memory plan has %d", workers, st.Shards, rs.NumShards())
				}
				if strings.HasPrefix(tc.name, "mixed-planning") && (e.fileSplits == 0 || e.slabSplits == 0) {
					t.Errorf("workers=%d: %d splits through files and %d in memory, want both",
						workers, e.fileSplits, e.slabSplits)
				}
			}
		})
	}
}

// TestStreamDerivedShardSize exercises the budget-derived cut: the stats
// report the chosen MaxShardRecords, and the in-memory path with that
// explicit cut reproduces the stream's bytes.
func TestStreamDerivedShardSize(t *testing.T) {
	d, text := genDataset(t, 9, 500, 40, 6)
	copts := core.Options{K: 3, M: 2, MaxClusterSize: 10, Seed: 3, Parallel: 2}
	var got bytes.Buffer
	st, err := Anonymize(strings.NewReader(text), &got,
		Options{Core: copts, MemoryBudget: 8 << 10, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardRecords <= 0 {
		t.Fatalf("derived shard cut not reported: %+v", st)
	}
	copts.MaxShardRecords = st.ShardRecords
	if want := inMemoryBinary(t, d, copts); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("stream (derived cut %d, %d shards) differs from in-memory path", st.ShardRecords, st.Shards)
	}
}

// TestStreamJSONMatchesInMemory pins the JSON emission path, spilled and
// unspilled. Bodies are staged in one file per worker, and assembly must
// drop the leading comma of the first cluster overall, and only it, whichever
// worker staged that cluster; the 6 KiB budget plans the root through files
// and its descendants in memory.
func TestStreamJSONMatchesInMemory(t *testing.T) {
	d, text := genDataset(t, 4, 300, 30, 6)
	copts := core.Options{K: 3, M: 2, MaxClusterSize: 10, Seed: 5, MaxShardRecords: 60}
	a, err := core.Anonymize(d, copts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := core.WriteJSON(&want, a); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{2 << 10, 6 << 10, 1 << 30} {
		for _, workers := range []int{1, 4} {
			copts.Parallel = workers
			got, st, e := runEngine(t, text, Options{Core: copts, MemoryBudget: budget, TempDir: t.TempDir(), JSON: true})
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("budget=%d workers=%d (spilled=%v, shards=%d): JSON output differs from WriteJSON",
					budget, workers, st.Spilled, st.Shards)
			}
			if budget == 6<<10 && (e.fileSplits == 0 || e.slabSplits == 0) {
				t.Errorf("workers=%d: %d splits through files and %d in memory, want both",
					workers, e.fileSplits, e.slabSplits)
			}
		}
	}
}

// TestStreamEdgeCases covers inputs the planner must not mishandle: empty
// streams, datasets below K, identical records (no usable split term after
// the first), and negative term IDs.
func TestStreamEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"blank-lines", "\n\n\n"},
		{"below-k", "1 2\n3 4\n"},
		{"identical-records", strings.Repeat("1 2 3\n", 50)},
		{"negative-terms", "-5 -1 3\n-5 2 7\n-1 2 3\n-5 -1 2\n3 7 9\n-5 3 9\n"},
		{"single-term-records", strings.Repeat("1\n", 20) + strings.Repeat("2\n", 20)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := dataset.ReadIDs(strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			copts := core.Options{K: 2, M: 1, MaxClusterSize: 4, Seed: 1, MaxShardRecords: 8}
			want := inMemoryBinary(t, d, copts)
			for _, budget := range []int64{1, 1 << 30} { // always-spill and never-spill
				var got bytes.Buffer
				if _, err := Anonymize(strings.NewReader(tc.input), &got,
					Options{Core: copts, MemoryBudget: budget, TempDir: t.TempDir()}); err != nil {
					t.Fatalf("budget=%d: %v", budget, err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("budget=%d: stream output differs from in-memory path", budget)
				}
			}
		})
	}
}

// TestStreamSensitiveTerms carries the l-diversity mode through the
// streaming path.
func TestStreamSensitiveTerms(t *testing.T) {
	d, text := genDataset(t, 13, 400, 25, 6)
	copts := core.Options{
		K: 3, M: 2, MaxClusterSize: 10, Seed: 11, MaxShardRecords: 50,
		Sensitive: map[dataset.Term]bool{3: true, 7: false, 12: true},
	}
	want := inMemoryBinary(t, d, copts)
	var got bytes.Buffer
	st, err := Anonymize(strings.NewReader(text), &got,
		Options{Core: copts, MemoryBudget: 2 << 10, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Spilled || st.Shards < 2 {
		t.Fatalf("fixture did not exercise the sharded path: %+v", st)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("sensitive-term stream output differs from in-memory path")
	}
}

// TestStreamInvalidOptions propagates option validation.
func TestStreamInvalidOptions(t *testing.T) {
	var got bytes.Buffer
	if _, err := Anonymize(strings.NewReader("1 2\n"), &got, Options{Core: core.Options{K: 1, M: 1}}); err == nil {
		t.Error("K=1 accepted")
	}
	if _, err := Anonymize(strings.NewReader("1 x\n"), &got, Options{Core: core.Options{K: 2, M: 1}}); err == nil {
		t.Error("malformed input accepted")
	}
}

// TestStreamPublishedValid re-verifies a streamed publication end to end.
func TestStreamPublishedValid(t *testing.T) {
	d, text := genDataset(t, 77, 500, 45, 7)
	copts := core.Options{K: 4, M: 2, MaxClusterSize: 14, Seed: 2, MaxShardRecords: 70}
	var got bytes.Buffer
	st, err := Anonymize(strings.NewReader(text), &got,
		Options{Core: copts, MemoryBudget: 4 << 10, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.ReadBinary(bytes.NewReader(got.Bytes()))
	if err != nil {
		t.Fatalf("streamed publication does not parse: %v", err)
	}
	if a.NumRecords() != d.Len() {
		t.Errorf("publication covers %d of %d records (%d shards)", a.NumRecords(), d.Len(), st.Shards)
	}
	if st.Clusters != len(a.Clusters) {
		t.Errorf("stats report %d clusters, publication has %d", st.Clusters, len(a.Clusters))
	}
}

// TestStreamShardsInFlight pins how many shards a spilled run processes at
// once, as the body files it opens: one per worker under an explicit cut,
// and at most shardsInFlight under a derived cut, which sizes each shard to
// that share of the budget.
func TestStreamShardsInFlight(t *testing.T) {
	_, text := genDataset(t, 42, 600, 50, 8)
	for _, cut := range []int{30, 0} {
		for _, workers := range []int{1, 3} {
			copts := core.Options{K: 3, M: 2, Seed: 1, MaxShardRecords: cut, Parallel: workers}
			_, st, e := runEngine(t, text, Options{Core: copts, MemoryBudget: 4 << 10, TempDir: t.TempDir()})
			want := min(workers, st.Shards)
			if cut == 0 {
				want = min(want, shardsInFlight)
			}
			if !st.Spilled || st.Shards <= workers || len(e.bodies) != want {
				t.Errorf("cut=%d workers=%d: %d shards (spilled=%v) ran %d at once, want %d",
					cut, workers, st.Shards, st.Spilled, len(e.bodies), want)
			}
		}
	}
}

// TestStreamSpillLinear pins what planning costs in temp files on a lopsided
// HORPART chain (3k Quest records, cut 50) whose root fits the planning
// share: every split is made in memory, the only temp files are the root
// spill, the shard-input file and one body file per worker, and the bytes
// staged stay within twice the dense input plus the publication. Routing
// each split through files instead rewrites the chain's without side at
// every level, tens of times the input.
func TestStreamSpillLinear(t *testing.T) {
	cfg := quest.DefaultConfig()
	cfg.NumTransactions = 3000
	cfg.DomainSize = 1000
	g, err := quest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Generate()
	var text, dense bytes.Buffer
	if err := dataset.WriteIDs(&text, d); err != nil {
		t.Fatal(err)
	}
	rw := dataset.NewBinaryRecordWriter(&dense)
	for _, r := range dataset.NewDenseDomain(d.Records).RemapAll(d.Records) {
		if err := rw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}

	copts := core.Options{K: 5, M: 2, Seed: 1, MaxShardRecords: 50}
	want := inMemoryBinary(t, d, copts)
	for _, workers := range []int{1, 3} {
		copts.Parallel = workers
		got, st, e := runEngine(t, text.String(), Options{Core: copts, MemoryBudget: 256 << 10, TempDir: t.TempDir()})
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: stream output differs from in-memory path", workers)
		}
		if splits := st.Shards - 1; !st.Spilled || splits < 50 || e.slabSplits != splits || e.fileSplits != 0 {
			t.Errorf("workers=%d: want a spilled chain of at least 50 splits, all in memory; got %d shards, %d splits in memory, %d through files (spilled=%v)",
				workers, st.Shards, e.slabSplits, e.fileSplits, st.Spilled)
		}
		if limit := 2 * int64(dense.Len()+len(got)); st.SpillBytes > limit {
			t.Errorf("workers=%d: staged %d bytes, over twice the %d-byte dense input plus the %d-byte publication",
				workers, st.SpillBytes, dense.Len(), len(got))
		}
		if want := 2 + workers; e.files != want {
			t.Errorf("workers=%d: created %d temp files, want %d (root spill, shard input, a body file per worker)",
				workers, e.files, want)
		}
	}
}
