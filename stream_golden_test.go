package disasso_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand/v2"
	"strings"
	"testing"

	"disasso"
)

// goldenConfig pins one (seed, k, m, maxClusterSize) configuration of the
// end-to-end golden test.
type goldenConfig struct {
	seed           uint64
	k, m           int
	maxClusterSize int
	shardRecords   int
	sha256         string
	// safeSHA256 pins the same configuration with SafeDisassociation on.
	safeSHA256 string
}

// The pinned digests cover the full pipeline: HORPART (sharded), VERPART,
// REFINE, the safe-disassociation repair (safeSHA256) and the binary writer.
// Any semantic drift in any stage — intended or not — must show up here and
// be re-pinned consciously. The three safe publications take 115, 39 and 70
// repair steps, 2, 3 and 26 of them demotions of a shared-chunk term.
var goldenConfigs = []goldenConfig{
	{seed: 1, k: 3, m: 2, maxClusterSize: 12, shardRecords: 90,
		sha256:     "8a775123fa7f7888f8d1df1295c7afd2eed983c18ee4b715fcfc79946699f576",
		safeSHA256: "cd07ea586f0a84e0fbfbbb55eac682ab076c87f05065306f72c618d2529928f3"},
	{seed: 99, k: 5, m: 2, maxClusterSize: 20, shardRecords: 140,
		sha256:     "0076047195af9e9dc78fcfab2522b3a72d8dcf1138c54f7ba15578829fc8870b",
		safeSHA256: "b8ca89f51a18700752b4e6a40b30b8fcef60f7453d2c8811b7dc0d2539fbb9b4"},
	{seed: 7, k: 4, m: 3, maxClusterSize: 16, shardRecords: 0, // unsharded
		sha256:     "a2b8668d9bb70b82a47bd41690ebd1c07bdf4efa4d5cb25ceece2b13dfa1f48c",
		safeSHA256: "e72539976099e849d2413dbbffe5b5b29b0c42793ca0981bd93f727bff60e66c"},
}

// goldenDataset is the fixed input: 400 records over 60 terms, Zipf-ish
// lengths, derived from a pinned PCG stream.
func goldenDataset(t testing.TB) (*disasso.Dataset, string) {
	t.Helper()
	rng := rand.New(rand.NewPCG(0xD15A550, 0x60D1DA7A))
	var records []disasso.Record
	for i := 0; i < 400; i++ {
		terms := make([]disasso.Term, 1+rng.IntN(7))
		for j := range terms {
			terms[j] = disasso.Term(rng.IntN(60))
		}
		records = append(records, disasso.NewRecord(terms...))
	}
	d := disasso.NewDataset(records...)
	var buf bytes.Buffer
	if err := disasso.WriteIDs(&buf, d); err != nil {
		t.Fatal(err)
	}
	return d, buf.String()
}

// TestGoldenPublications pins the SHA-256 of the in-memory publication for
// each config, plain and safe, and asserts AnonymizeStream reproduces the
// exact bytes, across memory budgets (spilled and not) and worker counts.
func TestGoldenPublications(t *testing.T) {
	d, text := goldenDataset(t)
	for ci, cfg := range goldenConfigs {
		for _, safe := range []bool{false, true} {
			opts := disasso.Options{
				K: cfg.k, M: cfg.m, MaxClusterSize: cfg.maxClusterSize,
				MaxShardRecords: cfg.shardRecords, Seed: cfg.seed,
				SafeDisassociation: safe,
			}
			pin := cfg.sha256
			if safe {
				pin = cfg.safeSHA256
			}
			a, err := disasso.Anonymize(d, opts)
			if err != nil {
				t.Fatalf("config %d safe=%v: %v", ci, safe, err)
			}
			if err := disasso.Verify(a); err != nil {
				t.Fatalf("config %d safe=%v fails verification: %v", ci, safe, err)
			}
			var want bytes.Buffer
			if err := disasso.WriteBinary(&want, a); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(want.Bytes())
			if got := hex.EncodeToString(sum[:]); got != pin {
				t.Errorf("config %d safe=%v: publication SHA-256 = %s, pinned %s", ci, safe, got, pin)
			}

			budgets := []int64{4 << 10, 1 << 30}
			if cfg.shardRecords == 0 {
				// An unsharded pin can only be reproduced without spilling: a
				// tiny budget would make the engine derive its own shard cut.
				budgets = budgets[1:]
			}
			for _, workers := range []int{1, 3, 8} {
				for _, budget := range budgets {
					sopts := disasso.StreamOptions{Core: opts, MemoryBudget: budget, TempDir: t.TempDir()}
					sopts.Core.Parallel = workers
					var got bytes.Buffer
					st, err := disasso.AnonymizeStream(strings.NewReader(text), &got, sopts)
					if err != nil {
						t.Fatalf("config %d safe=%v workers=%d budget=%d: %v", ci, safe, workers, budget, err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Errorf("config %d safe=%v workers=%d budget=%d (%d shards, spilled=%v): stream bytes differ from golden",
							ci, safe, workers, budget, st.Shards, st.Spilled)
					}
				}
			}
		}
	}
}
