package core

import (
	"bytes"
	"fmt"
	"testing"

	"disasso/internal/dataset"
	"disasso/internal/quest"
)

// planDense runs the shard planner over dense records through the
// in-memory source and returns the plan as AnonymizeShard inputs. Every id
// 0..|T|-1 occurs in dense, so universe indexes are the ids themselves.
func planDense(t *testing.T, dense []dataset.Record, nTerms, maxShard, k int) []Shard {
	t.Helper()
	seq := make([]uint64, len(dense))
	for i := range seq {
		seq[i] = uint64(i)
	}
	st, err := newRepubState(dense, seq, uint64(len(dense)), Options{K: k, MaxShardRecords: maxShard})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.terms) != nTerms {
		t.Fatalf("universe holds %d terms, want %d", len(st.terms), nTerms)
	}
	shards := make([]Shard, len(st.shards))
	for i, sh := range st.shards {
		ignore := make([]bool, nTerms)
		for _, a := range sh.path {
			ignore[a] = true
		}
		shards[i] = Shard{Records: sh.records, Ignore: ignore, Index: i}
	}
	return shards
}

// TestShardPlanPreservesHorPart pins the property the whole sharded design
// rests on: cutting the split tree with the shard planner and continuing
// HORPART inside each shard (with the split-path terms ignored) yields
// exactly the clusters, in exactly the order, that one global HORPART run
// produces.
func TestShardPlanPreservesHorPart(t *testing.T) {
	for _, S := range []int{12, 30, 64, 200} {
		d := genDataset(11, 7, 260)
		dom := dataset.NewDenseDomain(d.Records)
		dense := dom.RemapAll(d.Records)
		exclude := make([]bool, dom.Len())

		global := horPartN(dense, dense, dom.Len(), exclude, 12, 1)
		shards := planDense(t, dense, dom.Len(), S, 3)

		total := 0
		for _, sh := range shards {
			total += len(sh.Records)
		}
		if total != len(dense) {
			t.Fatalf("S=%d: shards cover %d of %d records", S, total, len(dense))
		}

		var sharded [][]dataset.Record
		for _, sh := range shards {
			sharded = append(sharded, horPartN(sh.Records, sh.Records, dom.Len(), sh.Ignore, 12, 1)...)
		}
		if len(sharded) != len(global) {
			t.Fatalf("S=%d: %d sharded clusters vs %d global", S, len(sharded), len(global))
		}
		for i := range global {
			if len(global[i]) != len(sharded[i]) {
				t.Fatalf("S=%d: cluster %d sizes differ: %d vs %d", S, i, len(global[i]), len(sharded[i]))
			}
			for j := range global[i] {
				if !global[i][j].Equal(sharded[i][j]) {
					t.Fatalf("S=%d: cluster %d record %d differs", S, i, j)
				}
			}
		}
	}
}

// TestShardCut covers the decision kernel's edges: under-threshold nodes,
// ignored terms, the tie-break, and the lopsided-side guard.
func TestShardCut(t *testing.T) {
	ignore := make([]bool, 4)
	sorted := []dataset.Term{10, 20, 30, 40}
	if _, _, split := shardCut(10, []int32{5, 5, 0, 0}, ignore, sorted, 10, 2); split {
		t.Error("node at maxShard split")
	}
	if _, _, split := shardCut(10, []int32{5, 5, 0, 0}, ignore, sorted, 0, 2); split {
		t.Error("maxShard=0 split")
	}
	term, sup, split := shardCut(10, []int32{5, 5, 0, 3}, ignore, sorted, 9, 2)
	if !split || term != 0 || sup != 5 {
		t.Errorf("tie-break: got term=%d sup=%d split=%v, want 0/5/true", term, sup, split)
	}
	// A grown universe: index 0 holds term 50, appended after the original
	// terms, so the tie goes to index 1 (term 20), the smaller global term.
	grown := []dataset.Term{50, 20, 30, 40}
	term, sup, split = shardCut(10, []int32{5, 5, 0, 3}, ignore, grown, 9, 2)
	if !split || term != 1 || sup != 5 {
		t.Errorf("tie-break by global term: got term=%d sup=%d split=%v, want 1/5/true", term, sup, split)
	}
	ignore[0] = true
	term, _, split = shardCut(10, []int32{5, 5, 0, 3}, ignore, sorted, 9, 2)
	if !split || term != 1 {
		t.Errorf("ignored term still chosen: term=%d split=%v", term, split)
	}
	ignore[0] = false
	// With-side below k: support 1 < k=2.
	if _, _, split := shardCut(10, []int32{1, 0, 0, 0}, ignore, sorted, 9, 2); split {
		t.Error("split with with-side below k")
	}
	// Without-side below k: 10-9 = 1 < 2.
	if _, _, split := shardCut(10, []int32{9, 0, 0, 0}, ignore, sorted, 9, 2); split {
		t.Error("split with without-side below k")
	}
	// No usable term at all.
	if _, _, split := shardCut(10, []int32{0, 0, 0, 0}, ignore, sorted, 9, 2); split {
		t.Error("split without any usable term")
	}
}

// TestShardPlanNeverStrandsBelowK is the guard delta routing relies on: no
// planned shard may hold fewer than k records (MergeUndersized repairs within
// a shard only), however small maxShard is pushed relative to the dataset.
func TestShardPlanNeverStrandsBelowK(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		d := genDataset(seed, seed+41, 150+int(seed)*30)
		dom := dataset.NewDenseDomain(d.Records)
		dense := dom.RemapAll(d.Records)
		for _, k := range []int{2, 4, 7} {
			for _, S := range []int{10, 25, 60} {
				shards := planDense(t, dense, dom.Len(), S, k)
				for _, sh := range shards {
					if len(sh.Records) < k && len(shards) > 1 {
						t.Fatalf("seed %d k=%d S=%d: shard %d stranded with %d < k records",
							seed, k, S, sh.Index, len(sh.Records))
					}
				}
			}
		}
	}
}

// TestShardPlanMaxClusterClamp pins the withDefaults interaction: a
// MaxShardRecords below MaxClusterSize is raised to it (a smaller cut could
// land inside a node HORPART would emit as one cluster), so both settings
// publish identical bytes.
func TestShardPlanMaxClusterClamp(t *testing.T) {
	opts, err := ShardOptions(Options{K: 3, M: 2, MaxClusterSize: 25, MaxShardRecords: 5})
	if err != nil {
		t.Fatal(err)
	}
	if opts.MaxShardRecords != 25 {
		t.Fatalf("MaxShardRecords clamped to %d, want MaxClusterSize=25", opts.MaxShardRecords)
	}

	d := genDataset(9, 2, 200)
	below := Options{K: 3, M: 2, MaxClusterSize: 25, MaxShardRecords: 5, Seed: 3, Parallel: 1}
	at := below
	at.MaxShardRecords = 25
	a1, err := Anonymize(d, below)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Anonymize(d, at)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeAnonymized(t, a1), encodeAnonymized(t, a2)) {
		t.Error("clamped MaxShardRecords publishes different bytes than the clamp target")
	}
}

// TestShardCutAllRecordsOneTerm covers the degenerate split: when one term
// appears in every record, splitting on it would strand an empty without-side,
// and every other term is too rare — the node must stay one (oversized) shard.
func TestShardCutAllRecordsOneTerm(t *testing.T) {
	const n = 40
	ignore := make([]bool, 2)
	term, sup, split := shardCut(n, []int32{n, 1}, ignore, []dataset.Term{0, 1}, 10, 2)
	if split {
		t.Errorf("split on a term present in all records: term=%d sup=%d", term, sup)
	}
	if term != 0 || sup != n {
		t.Errorf("argmax should still report the dominant term: got term=%d sup=%d", term, sup)
	}

	// End to end: records {shared, unique_i} — the shared term's without-side
	// is empty, each unique term's with-side is 1 < k.
	records := make([]dataset.Record, n)
	for i := range records {
		records[i] = dataset.NewRecord(0, dataset.Term(i+1))
	}
	dom := dataset.NewDenseDomain(records)
	dense := dom.RemapAll(records)
	shards := planDense(t, dense, dom.Len(), 10, 2)
	if len(shards) != 1 {
		t.Fatalf("degenerate dataset split into %d shards, want 1", len(shards))
	}
	if len(shards[0].Records) != n {
		t.Fatalf("single shard holds %d of %d records", len(shards[0].Records), n)
	}
}

// TestAnonymizeShardedValid checks that sharded runs still publish a valid,
// record-complete dataset, that shard 0 output is stable against the
// unsharded path's prefix semantics (MaxShardRecords=0 ≡ historical bytes),
// and that sharded output is deterministic across worker counts.
func TestAnonymizeShardedValid(t *testing.T) {
	d := genDataset(5, 17, 300)
	base := Options{K: 3, M: 2, MaxClusterSize: 12, Seed: 7}

	unsharded, err := Anonymize(d, base)
	if err != nil {
		t.Fatal(err)
	}

	sharded := base
	sharded.MaxShardRecords = 60
	a, err := Anonymize(d, sharded)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRecords() != d.Len() {
		t.Fatalf("sharded run covers %d of %d records", a.NumRecords(), d.Len())
	}
	if got, want := a.NumRecords(), unsharded.NumRecords(); got != want {
		t.Fatalf("record counts differ: %d vs %d", got, want)
	}

	want := encodeAnonymized(t, a)
	for _, workers := range []int{2, 8} {
		opts := sharded
		opts.Parallel = workers
		got, err := Anonymize(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeAnonymized(t, got), want) {
			t.Errorf("sharded output differs at Parallel=%d", workers)
		}
	}
}

// BenchmarkShardPlan times the in-memory plan build alone (the universe plus
// the plan recursion, no anonymization) at the shape of the end-to-end
// benchmark's publish workload: its 20k Quest records (5k-term domain,
// average length 10, Quest seed 1), unsharded and at cuts 1,040 and 2,000.
// Cut 2,000 is the workload's live dataset, a 150-deep chain of 151 shards.
func BenchmarkShardPlan(b *testing.B) {
	cfg := quest.DefaultConfig()
	cfg.NumTransactions = 20_000
	g, err := quest.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	records := g.Generate().Records
	seq := make([]uint64, len(records))
	for i := range seq {
		seq[i] = uint64(i)
	}
	for _, cut := range []int{0, 1040, 2000} {
		b.Run(fmt.Sprintf("cut=%d", cut), func(b *testing.B) {
			opts := Options{K: 5, M: 2, MaxShardRecords: cut}.withDefaults()
			var st *RepubState
			for i := 0; i < b.N; i++ {
				var err error
				if st, err = newRepubState(records, seq, uint64(len(records)), opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.NumShards()), "shards")
		})
	}
}
