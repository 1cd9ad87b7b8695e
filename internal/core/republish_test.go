package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"disasso/internal/dataset"
	"disasso/internal/quest"
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
// out of splits. The planner partitions records in place, so it also checks
// that the caller's records keep their order and contents: the server
// persists them as the original.
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
			input := d.Clone()
			got, st, err := AnonymizeWithState(d, opts)
			if err != nil {
				t.Fatalf("config %d: %v", ci, err)
			}
			if !slices.EqualFunc(d.Records, input.Records, dataset.Record.Equal) {
				t.Errorf("config %d workers %d: the input records changed (%d shards)", ci, workers, st.NumShards())
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
// over the same logical dataset, across configs and worker counts, over 30
// random deltas each. It also checks that some delta re-anonymizes fewer
// than all shards, that Apply leaves the caller's delta lists as they were,
// and that every delta that changes the shard count (checkShift) keeps the
// shards before its first dirty one; some such delta must keep a shard, or
// the walk's re-run of moved shards is never told apart from a full
// republish.
func TestDeltaRepublishEquivalence(t *testing.T) {
	sawIncremental := false
	shifts, kept, rerun := 0, 0, 0
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
			for step := 0; step < 30; step++ {
				delta := deltaFor(rng, logical, step)
				logical, err = applyToRecords(logical, delta)
				if err != nil {
					t.Fatalf("config %d step %d: %v", ci, step, err)
				}
				removes, appends := slices.Clone(delta.Remove), slices.Clone(delta.Append)
				anon, next, stats, err := st.Apply(delta)
				if err != nil {
					t.Fatalf("config %d step %d: Apply: %v", ci, step, err)
				}
				if !slices.EqualFunc(delta.Remove, removes, dataset.Record.Equal) || !slices.EqualFunc(delta.Append, appends, dataset.Record.Equal) {
					t.Fatalf("config %d step %d: Apply changed the caller's delta", ci, step)
				}
				want, err := Anonymize(dataset.FromRecords(logical), opts)
				if err != nil {
					t.Fatalf("config %d step %d: scratch: %v", ci, step, err)
				}
				gotBytes, wantBytes := encodeAnonymized(t, anon), encodeAnonymized(t, want)
				if !bytes.Equal(gotBytes, wantBytes) {
					t.Fatalf("config %d workers %d step %d: delta republish differs from scratch (dirty %d/%d)",
						ci, workers, step, stats.DirtyShards, stats.TotalShards)
				}
				if sha256.Sum256(gotBytes) != sha256.Sum256(wantBytes) {
					t.Fatalf("config %d step %d: stream hash mismatch", ci, step)
				}
				if !stats.FullRepublish && stats.DirtyShards < stats.TotalShards {
					sawIncremental = true
				}
				if stats.TotalShards != st.NumShards() && !republishScratchDefault {
					shifts++
					rerun += stats.DirtyShards
					if checkShift(t, fmt.Sprintf("config %d workers %d step %d", ci, workers, step), st, next, stats) > 0 {
						kept++
					}
				}
				st = next
				if got := st.NumRecords(); got != len(logical) {
					t.Fatalf("config %d step %d: state has %d records, want %d", ci, step, got, len(logical))
				}
			}
		}
	}
	if !sawIncremental && !republishScratchDefault {
		t.Error("every delta re-anonymized every shard")
	}
	t.Logf("%d deltas changed the shard count, re-running %d shards; %d kept a shard", shifts, rerun, kept)
	if kept == 0 && !republishScratchDefault {
		t.Errorf("none of %d shard-count changes kept a shard", shifts)
	}
}

// TestDeltaFallbackOnBoundaryShift forces a shard-boundary move: a flood of
// records dominated by a brand-new term changes the root split decision and
// with it the shard count. Apply must match scratch and pass checkShift: it
// re-runs the moved shards at their new indexes, keeps the shards before
// them and reports FullRepublish, because the indexes no longer line up.
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
	anon, next, stats, err := st.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalShards == st.NumShards() {
		t.Fatalf("fixture no longer changes the shard count (%d shards)", stats.TotalShards)
	}
	if !republishScratchDefault {
		checkShift(t, "flood", st, next, stats)
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
		t.Error("shifting republish differs from scratch")
	}
}

// checkShift checks a delta that changed the shard count: it reports
// FullRepublish, since its shards no longer line up with the old ones by
// index, and every shard before the first dirty one is the old state's, by
// pointer. It returns that first dirty index.
func checkShift(t *testing.T, name string, old, next *RepubState, stats RepublishStats) int {
	t.Helper()
	if !stats.FullRepublish {
		t.Errorf("%s: a shard-count change reports FullRepublish false", name)
	}
	first := len(next.shards)
	if len(stats.Dirty) > 0 {
		first = stats.Dirty[0]
	}
	for si := range first {
		if next.shards[si] != old.shards[si] {
			t.Errorf("%s: shard %d lies before the first dirty shard %d but is not the old state's", name, si, first)
		}
	}
	return first
}

// TestDeltaRemoveMissing checks a removal of an absent record, or of a
// present one more times than the dataset holds it, fails the whole delta
// with ErrRecordNotFound and leaves the state usable.
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
	over := make([]dataset.Record, d.Len()+1)
	for i := range over {
		over[i] = d.Records[0]
	}
	if _, _, _, err = st.Apply(Delta{Remove: over}); !errors.Is(err, ErrRecordNotFound) {
		t.Fatalf("removing a record %d times: got %v, want ErrRecordNotFound", len(over), err)
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

// TestApplyWithSeqMatchesLinearScan pins the hashed removal matcher to a
// naive reference that, for each removal in turn, scans for the earliest
// occurrence not yet removed. The random bags draw from a handful of
// distinct records (the empty one among them), so they hold duplicates, and
// the deltas repeat removals and remove records the bag lacks or holds fewer
// times. A failed delta must report the same record.
func TestApplyWithSeqMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xA991, 0x5E9))
	randRecord := func(terms int) dataset.Record {
		r := make([]dataset.Term, rng.IntN(3))
		for j := range r {
			r[j] = dataset.Term(rng.IntN(terms))
		}
		return dataset.NewRecord(r...)
	}
	count := func(rs []dataset.Record, r dataset.Record) int {
		n := 0
		for _, q := range rs {
			if q.Equal(r) {
				n++
			}
		}
		return n
	}
	linear := func(records []dataset.Record, seq []uint64, removes []dataset.Record, appends []seqRecord) ([]dataset.Record, []uint64, error) {
		gone := make([]bool, len(records))
		for _, r := range removes {
			i := 0
			for i < len(records) && (gone[i] || !records[i].Equal(r)) {
				i++
			}
			if i == len(records) {
				// The first removal, in delta order, that outnumbers its
				// occurrences names the failure.
				for _, q := range removes {
					if count(removes, q) > count(records, q) {
						return nil, nil, fmt.Errorf("%w: %v", ErrRecordNotFound, q)
					}
				}
			}
			gone[i] = true
		}
		var outR []dataset.Record
		var outS []uint64
		for i, r := range records {
			if !gone[i] {
				outR, outS = append(outR, r), append(outS, seq[i])
			}
		}
		for _, a := range appends {
			outR, outS = append(outR, a.r), append(outS, a.seq)
		}
		return outR, outS, nil
	}
	failed := 0
	for trial := range 2000 {
		records := make([]dataset.Record, rng.IntN(25))
		seq := make([]uint64, len(records))
		for i := range records {
			records[i], seq[i] = randRecord(4), uint64(3*i+1)
		}
		var removes []dataset.Record
		for range rng.IntN(10) {
			if len(records) > 0 && rng.IntN(3) > 0 {
				removes = append(removes, records[rng.IntN(len(records))])
			} else {
				removes = append(removes, randRecord(6))
			}
		}
		appends := make([]seqRecord, rng.IntN(3))
		for i := range appends {
			appends[i] = seqRecord{r: randRecord(4), seq: uint64(3*len(records) + i)}
		}
		gotR, gotS, err := applyWithSeq(records, seq, removes, appends)
		wantR, wantS, wantErr := linear(records, seq, removes, appends)
		if (err == nil) != (wantErr == nil) || (err != nil && (!errors.Is(err, ErrRecordNotFound) || err.Error() != wantErr.Error())) {
			t.Fatalf("trial %d: error %v, want %v (records %v, removes %v)", trial, err, wantErr, records, removes)
		}
		if err != nil {
			failed++
			continue
		}
		if !slices.EqualFunc(gotR, wantR, dataset.Record.Equal) || !slices.Equal(gotS, wantS) {
			t.Fatalf("trial %d: got %v %v, want %v %v (records %v, removes %v)", trial, gotR, gotS, wantR, wantS, records, removes)
		}
	}
	if failed == 0 || failed == 2000 {
		t.Fatalf("%d of 2000 deltas failed: the fixture must exercise both outcomes", failed)
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
	inc, _, _, err := st.Apply(delta)
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
		t.Error("incremental path differs from forced scratch path")
	}
}

// TestDeltaReplantEquivalence pins the subtree-replant path: single-record
// deltas on a many-shard plan routinely flip a deep ShardCut decision (the
// argmax margins near the leaves are tiny), and the engine must absorb the
// flip by rebuilding just that subtree, byte-identical to scratch, without
// re-anonymizing every shard.
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
			t.Fatalf("step %d: delta republish differs from scratch (dirty %d/%d, replanned %d)",
				step, stats.DirtyShards, stats.TotalShards, stats.ReplannedShards)
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
		t.Error("no delta ever exercised the subtree replant")
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
			t.Fatalf("step %d: delta republish differs from scratch (dirty %d/%d, replanned %d)",
				step+1, stats.DirtyShards, stats.TotalShards, stats.ReplannedShards)
		}
	}
}

// TestDeltaReplantKeepsUnchangedShards pins the reuse rule of a replant: a
// rebuilt subtree's leaf whose records and split-path set equal the old leaf
// at its index keeps the old shard, published nodes included. On a Quest
// fixture (3k records, 5k-term domain, cut 300: a lopsided chain of 128
// shards) a 20-record append and its removal each flip a chain decision
// whose subtree holds most of the shards, and fewer than two thirds of those
// change. After each, every dirty shard must differ from the old one at its
// index, every other shard must be the old state's, and the bytes must equal
// a from-scratch republish.
func TestDeltaReplantKeepsUnchangedShards(t *testing.T) {
	cfg := quest.DefaultConfig()
	cfg.NumTransactions, cfg.DomainSize, cfg.AvgTransLen, cfg.Seed = 3_020, 5_000, 10, 1
	g, err := quest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := g.Generate().Records
	published, held := all[:3_000], all[3_000:]
	opts := Options{K: 5, M: 2, MaxShardRecords: 300, Seed: 1, Parallel: 2}
	_, st, err := AnonymizeWithState(dataset.FromRecords(published), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []Delta{{Append: held}, {Remove: held}} {
		anon, next, stats, err := st.applyDelta(delta)
		if err != nil {
			t.Fatalf("delta (%d appended, %d removed): %v", len(delta.Append), len(delta.Remove), err)
		}
		if stats.ReplannedShards == 0 || len(next.shards) != len(st.shards) {
			t.Fatalf("fixture no longer replants a flipped subtree: replanned %d, shards %d -> %d",
				stats.ReplannedShards, len(st.shards), len(next.shards))
		}
		dirty := make(map[int]bool, len(stats.Dirty))
		for _, si := range stats.Dirty {
			dirty[si] = true
			old, sh := st.shards[si], next.shards[si]
			if slices.Equal(old.seq, sh.seq) && pathSetOf(old.path) == pathSetOf(sh.path) {
				t.Errorf("shard %d is dirty but has the old records and split-path set", si)
			}
		}
		for si, sh := range next.shards {
			if !dirty[si] && sh != st.shards[si] {
				t.Errorf("clean shard %d does not share the old state's shard", si)
			}
		}
		scratch, _, _, err := st.applyScratch(delta)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeAnonymized(t, anon), encodeAnonymized(t, scratch)) {
			t.Fatalf("delta republish differs from scratch (dirty %d/%d, replanned %d)",
				stats.DirtyShards, stats.TotalShards, stats.ReplannedShards)
		}
		t.Logf("dirty %d/%d, replanned %d", stats.DirtyShards, stats.TotalShards, stats.ReplannedShards)
		st = next
	}
}

// pathSetOf renders a split path as its sorted term-index set.
func pathSetOf(path []int32) string {
	return fmt.Sprint(slices.Sorted(slices.Values(path)))
}
