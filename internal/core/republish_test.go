package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand/v2"
	"testing"

	"disasso/internal/dataset"
)

// republishConfigs are the equivalence-test configurations: varied K/M,
// cluster size, shard size, sensitivity and refine settings.
func republishConfigs() []Options {
	return []Options{
		{K: 3, M: 2, MaxClusterSize: 10, MaxShardRecords: 40, Seed: 7},
		{K: 4, M: 2, MaxClusterSize: 12, MaxShardRecords: 48, Seed: 99,
			Sensitive: map[dataset.Term]bool{3: true, 11: false}},
		{K: 2, M: 3, MaxClusterSize: 8, MaxShardRecords: 32, Seed: 5, DisableRefine: true},
		{K: 3, M: 2, MaxClusterSize: 10, Seed: 21}, // single global shard
	}
}

// TestAnonymizeWithStateMatchesAnonymize pins the publications of the
// stateful pipeline (plan tree + per-shard local dense domains), which
// Anonymize runs too, to SHA-256 digests of their WriteBinary bytes at every
// worker count. Config 1 carries Sensitive keys, which the planner must keep
// out of splits.
func TestAnonymizeWithStateMatchesAnonymize(t *testing.T) {
	want := []string{
		"dd2b01a6be4956c095c8e416c42ff5b1b34757ae9a832594bad46504c01b7499", // 9 shards
		"137be8785ab46a73448c788536613bbe385b25a29fa8748d76b119df7be5c2f3", // Sensitive keys, 9 shards
		"10f357415a83c10db290ed0c402af73196b2a3c10bdd1540095f1b48a36823b9", // DisableRefine, 12 shards
		"9afbe55807a3624aa27a5fb42f522e5287e4683c3f91e066703ce9f4ef02ba22", // unsharded
	}
	for ci, opts := range republishConfigs() {
		for _, workers := range []int{1, 4} {
			opts.Parallel = workers
			d := genDataset(uint64(ci)+3, 11, 180)
			got, st, err := AnonymizeWithState(d, opts)
			if err != nil {
				t.Fatalf("config %d: %v", ci, err)
			}
			if sum := sha256.Sum256(encodeAnonymized(t, got)); hex.EncodeToString(sum[:]) != want[ci] {
				t.Errorf("config %d workers %d: digest %x, want %s (%d shards)", ci, workers, sum, want[ci], st.NumShards())
			}
			if st.NumRecords() != d.Len() {
				t.Errorf("config %d: state holds %d records, want %d", ci, st.NumRecords(), d.Len())
			}
		}
	}
}

// deltaFor derives a small deterministic delta from the current logical
// records: a few removals of existing records and a few appends, sometimes
// introducing terms outside the original domain.
func deltaFor(rng *rand.Rand, logical []dataset.Record, step int) Delta {
	var delta Delta
	picked := make(map[int]bool)
	for i := 0; i < 1+rng.IntN(4) && len(logical) > 0; i++ {
		// Distinct indexes: the same record may be removed twice only when
		// the bag really holds two occurrences.
		j := rng.IntN(len(logical))
		if picked[j] {
			continue
		}
		picked[j] = true
		delta.Remove = append(delta.Remove, logical[j])
	}
	for i := 0; i < 1+rng.IntN(5); i++ {
		span := 25
		if step%3 == 2 {
			span = 40 // occasionally introduce brand-new terms
		}
		terms := make([]dataset.Term, 1+rng.IntN(5))
		for j := range terms {
			terms[j] = dataset.Term(rng.IntN(span))
		}
		delta.Append = append(delta.Append, dataset.NewRecord(terms...))
	}
	return delta
}

// TestDeltaRepublishEquivalence is the oracle test: after every Apply the
// published bytes (and their SHA-256) must equal a from-scratch Anonymize
// over the same logical dataset, across configs and worker counts. It also
// checks that the incremental path (not just the fallback) is exercised.
func TestDeltaRepublishEquivalence(t *testing.T) {
	sawIncremental := false
	for ci, opts := range republishConfigs() {
		for _, workers := range []int{1, 4} {
			opts.Parallel = workers
			d := genDataset(uint64(ci)+3, 11, 180)
			logical := append([]dataset.Record(nil), d.Records...)
			_, st, err := AnonymizeWithState(d, opts)
			if err != nil {
				t.Fatalf("config %d: %v", ci, err)
			}
			rng := rand.New(rand.NewPCG(uint64(ci), uint64(workers)))
			for step := 0; step < 6; step++ {
				delta := deltaFor(rng, logical, step)
				logical, err = applyToRecords(logical, delta)
				if err != nil {
					t.Fatalf("config %d step %d: %v", ci, step, err)
				}
				anon, next, stats, err := st.Apply(delta)
				if err != nil {
					t.Fatalf("config %d step %d: Apply: %v", ci, step, err)
				}
				st = next
				want, err := Anonymize(dataset.FromRecords(logical), opts)
				if err != nil {
					t.Fatalf("config %d step %d: scratch: %v", ci, step, err)
				}
				gotBytes, wantBytes := encodeAnonymized(t, anon), encodeAnonymized(t, want)
				if !bytes.Equal(gotBytes, wantBytes) {
					t.Fatalf("config %d workers %d step %d: delta republish differs from scratch (dirty %d/%d, fallback %v)",
						ci, workers, step, stats.DirtyShards, stats.TotalShards, stats.FullRepublish)
				}
				if sha256.Sum256(gotBytes) != sha256.Sum256(wantBytes) {
					t.Fatalf("config %d step %d: stream hash mismatch", ci, step)
				}
				if !stats.FullRepublish && stats.DirtyShards < stats.TotalShards {
					sawIncremental = true
				}
				if got := st.NumRecords(); got != len(logical) {
					t.Fatalf("config %d step %d: state has %d records, want %d", ci, step, got, len(logical))
				}
			}
		}
	}
	if !sawIncremental && !republishScratchDefault {
		t.Error("no delta ever took the incremental path: every Apply fell back to full republish")
	}
}

// TestDeltaFallbackOnBoundaryShift forces a shard-boundary move: a flood of
// records dominated by a brand-new term changes the root split decision, so
// Apply must fall back to a full republish — and still match scratch.
func TestDeltaFallbackOnBoundaryShift(t *testing.T) {
	opts := Options{K: 3, M: 2, MaxClusterSize: 10, MaxShardRecords: 40, Seed: 7, Parallel: 1}
	d := genDataset(1, 2, 180)
	_, st, err := AnonymizeWithState(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumShards() < 2 {
		t.Fatalf("fixture has %d shards, need at least 2", st.NumShards())
	}
	var delta Delta
	for i := 0; i < 200; i++ {
		delta.Append = append(delta.Append, dataset.NewRecord(999, dataset.Term(i%25)))
	}
	anon, _, stats, err := st.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FullRepublish {
		t.Errorf("expected fallback to full republish, got dirty %d/%d", stats.DirtyShards, stats.TotalShards)
	}
	logical, err := applyToRecords(d.Records, delta)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Anonymize(dataset.FromRecords(logical), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeAnonymized(t, anon), encodeAnonymized(t, want)) {
		t.Error("fallback republish differs from scratch")
	}
}

// TestDeltaRemoveMissing checks a removal of an absent record fails the whole
// delta with ErrRecordNotFound and leaves the state usable.
func TestDeltaRemoveMissing(t *testing.T) {
	opts := Options{K: 3, M: 2, MaxClusterSize: 10, MaxShardRecords: 40, Seed: 7, Parallel: 1}
	d := genDataset(1, 2, 120)
	_, st, err := AnonymizeWithState(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = st.Apply(Delta{Remove: []dataset.Record{dataset.NewRecord(7777)}})
	if !errors.Is(err, ErrRecordNotFound) {
		t.Fatalf("got %v, want ErrRecordNotFound", err)
	}
	// The old state is untouched and still accepts deltas.
	anon, _, _, err := st.Apply(Delta{Append: []dataset.Record{dataset.NewRecord(1, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if anon.NumRecords() != d.Len()+1 {
		t.Errorf("got %d records, want %d", anon.NumRecords(), d.Len()+1)
	}
}

// TestDeltaValidation rejects empty and unnormalized delta records.
func TestDeltaValidation(t *testing.T) {
	opts := Options{K: 3, M: 2, Seed: 1, Parallel: 1}
	_, st, err := AnonymizeWithState(genDataset(1, 2, 40), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.Apply(Delta{Append: []dataset.Record{{}}}); err == nil {
		t.Error("empty append record accepted")
	}
	if _, _, _, err := st.Apply(Delta{Append: []dataset.Record{{5, 3}}}); err == nil {
		t.Error("unnormalized append record accepted")
	}
	if _, _, _, err := st.Apply(Delta{Remove: []dataset.Record{{5, 3}}}); err == nil {
		t.Error("unnormalized remove record accepted")
	}
}

// TestDeltaDrainAndRefill empties the dataset through removals and grows it
// back, comparing against scratch at both ends.
func TestDeltaDrainAndRefill(t *testing.T) {
	opts := Options{K: 2, M: 1, MaxClusterSize: 4, Seed: 3, Parallel: 1}
	records := []dataset.Record{
		dataset.NewRecord(1, 2),
		dataset.NewRecord(2, 3),
		dataset.NewRecord(1, 3),
	}
	_, st, err := AnonymizeWithState(dataset.FromRecords(records), opts)
	if err != nil {
		t.Fatal(err)
	}
	anon, st, _, err := st.Apply(Delta{Remove: records})
	if err != nil {
		t.Fatal(err)
	}
	if len(anon.Clusters) != 0 || st.NumRecords() != 0 {
		t.Fatalf("drained dataset still publishes %d clusters over %d records", len(anon.Clusters), st.NumRecords())
	}
	anon, st, _, err = st.Apply(Delta{Append: records})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Anonymize(dataset.FromRecords(records), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeAnonymized(t, anon), encodeAnonymized(t, want)) {
		t.Error("refilled dataset differs from scratch")
	}
	if st.NumRecords() != len(records) {
		t.Errorf("state has %d records, want %d", st.NumRecords(), len(records))
	}
}

// TestRepublishScratchHook checks the forced from-scratch path returns the
// same bytes as the incremental path from the same starting state.
func TestRepublishScratchHook(t *testing.T) {
	opts := Options{K: 3, M: 2, MaxClusterSize: 10, MaxShardRecords: 40, Seed: 7, Parallel: 1}
	d := genDataset(4, 9, 160)
	_, st, err := AnonymizeWithState(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	delta := Delta{Append: []dataset.Record{dataset.NewRecord(1, 2, 3)}, Remove: []dataset.Record{d.Records[0]}}
	inc, _, incStats, err := st.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}

	republishScratch = true
	defer func() { republishScratch = republishScratchDefault }()
	scr, _, scrStats, err := st.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	if !scrStats.FullRepublish {
		t.Error("hooked Apply did not report a full republish")
	}
	if !bytes.Equal(encodeAnonymized(t, inc), encodeAnonymized(t, scr)) {
		t.Errorf("incremental path (fallback=%v) differs from forced scratch path", incStats.FullRepublish)
	}
}

// TestDeltaReplantEquivalence pins the subtree-replant path: single-record
// deltas on a many-shard plan routinely flip a deep ShardCut decision (the
// argmax margins near the leaves are tiny), and the engine must absorb the
// flip by rebuilding just that subtree — byte-identical to scratch, without
// a full republish — whenever the subtree's shard count is preserved.
func TestDeltaReplantEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	records := make([]dataset.Record, 0, 600)
	for i := 0; i < 600; i++ {
		terms := make([]dataset.Term, 1+rng.IntN(6))
		for j := range terms {
			terms[j] = dataset.Term(rng.IntN(60))
		}
		records = append(records, dataset.NewRecord(terms...))
	}
	opts := Options{K: 3, M: 2, MaxClusterSize: 10, MaxShardRecords: 30, Seed: 9, Parallel: 2}
	d := dataset.FromRecords(records)
	logical := append([]dataset.Record(nil), d.Records...)
	_, st, err := AnonymizeWithState(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumShards() < 8 {
		t.Fatalf("fixture has %d shards, want a many-shard plan", st.NumShards())
	}
	sawReplant := false
	for step := 0; step < 24; step++ {
		var delta Delta
		if step%2 == 0 {
			delta.Remove = []dataset.Record{logical[rng.IntN(len(logical))]}
		} else {
			delta.Append = []dataset.Record{logical[rng.IntN(len(logical))]}
		}
		logical, err = applyToRecords(logical, delta)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		anon, next, stats, err := st.Apply(delta)
		if err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}
		st = next
		want, err := Anonymize(dataset.FromRecords(logical), opts)
		if err != nil {
			t.Fatalf("step %d: scratch: %v", step, err)
		}
		if !bytes.Equal(encodeAnonymized(t, anon), encodeAnonymized(t, want)) {
			t.Fatalf("step %d: delta republish differs from scratch (dirty %d/%d, replanned %d, fallback %v)",
				step, stats.DirtyShards, stats.TotalShards, stats.ReplannedShards, stats.FullRepublish)
		}
		if !stats.FullRepublish && stats.ReplannedShards > 0 {
			sawReplant = true
			if stats.DirtyShards >= stats.TotalShards {
				t.Errorf("step %d: replant dirtied every shard (%d/%d): the splice saved nothing",
					step, stats.DirtyShards, stats.TotalShards)
			}
		}
	}
	if !sawReplant && !republishScratchDefault {
		t.Error("no delta ever exercised the subtree replant: every flip either fell back or never happened")
	}
}

// TestDeltaAppendedTermTieBreak pins the tie-break on a grown universe: a
// term first seen in a delta takes a universe index after every original
// term, so an argmax tie between it and a smaller-indexed original term must
// still go to the smaller global term, as it does over a freshly sorted
// domain. Term 10 arrives in step 1; step 2 leaves it tied with term 30 at
// the root (support 3 each), and scratch splits on 10.
func TestDeltaAppendedTermTieBreak(t *testing.T) {
	opts := Options{K: 2, M: 2, MaxClusterSize: 3, MaxShardRecords: 10, Seed: 5, Parallel: 1}
	var records []dataset.Record
	for i := dataset.Term(1); i <= 6; i++ {
		records = append(records, dataset.NewRecord(30, 50+i))
	}
	for i := dataset.Term(1); i <= 5; i++ {
		records = append(records, dataset.NewRecord(60+i))
	}
	_, st, err := AnonymizeWithState(dataset.FromRecords(records), opts)
	if err != nil {
		t.Fatal(err)
	}
	logical := records
	steps := []Delta{
		{Append: []dataset.Record{dataset.NewRecord(10, 71), dataset.NewRecord(10, 72), dataset.NewRecord(10, 73)}},
		{Remove: []dataset.Record{dataset.NewRecord(30, 51), dataset.NewRecord(30, 52), dataset.NewRecord(30, 53)}},
	}
	for step, delta := range steps {
		if logical, err = applyToRecords(logical, delta); err != nil {
			t.Fatal(err)
		}
		anon, next, stats, err := st.Apply(delta)
		if err != nil {
			t.Fatalf("step %d: Apply: %v", step+1, err)
		}
		st = next
		want, err := Anonymize(dataset.FromRecords(logical), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeAnonymized(t, anon), encodeAnonymized(t, want)) {
			t.Fatalf("step %d: delta republish differs from scratch (dirty %d/%d, replanned %d, fallback %v)",
				step+1, stats.DirtyShards, stats.TotalShards, stats.ReplannedShards, stats.FullRepublish)
		}
	}
}
