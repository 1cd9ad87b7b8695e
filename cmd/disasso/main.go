// Command disasso anonymizes a transactional dataset by disassociation.
//
// The input is a text file with one record per line, terms as
// whitespace-separated integer IDs (see -names for string terms). The output
// is the published disassociated form as JSON, re-loadable by this tool for
// verification, or a sampled reconstruction as text.
//
// Usage:
//
//	disasso -in data.txt -k 5 -m 2 -out anonymized.json
//	disasso -in data.txt -reconstruct 3 -out samples.txt
//	disasso -verify anonymized.json -in data.txt
//	disasso -in huge.txt -stream -mem-budget 512M -binary -out anonymized.bin
//	disasso -in data.txt -k 5 -safe -out anonymized.json
//	disasso -verify anonymized.json -in data.txt -breaches
//
// With -stream the input is anonymized by the sharded streaming engine in
// bounded memory (see -mem-budget): once the input passes half the budget,
// all of it spills to temp files. The published bytes are identical to the
// in-memory path at equal options.
//
// With -breaches the output is a cover-problem breach audit of the
// publication (either the one just produced, or the -verify file) as JSON,
// and the exit status reports whether it is breach-free; -safe publishes
// with safe disassociation, which repairs every such breach.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"disasso"
	"disasso/internal/dataset"
)

func main() {
	var (
		in          = flag.String("in", "", "input dataset (one record per line)")
		out         = flag.String("out", "", "output file (default stdout)")
		names       = flag.Bool("names", false, "terms are strings, not integer IDs")
		k           = flag.Int("k", 5, "k of the k^m-anonymity guarantee")
		m           = flag.Int("m", 2, "m of the k^m-anonymity guarantee (adversary knowledge)")
		maxCluster  = flag.Int("maxcluster", 0, "maximum cluster size (0 = default)")
		noRefine    = flag.Bool("no-refine", false, "skip the REFINE step (no joint clusters)")
		parallel    = flag.Int("parallel", 0, "vertical-partitioning workers (0 = all cores)")
		seed        = flag.Uint64("seed", 1, "PRNG seed for subrecord shuffling")
		reconstruct = flag.Int("reconstruct", 0, "instead of JSON, emit N reconstructed datasets as text")
		verify      = flag.String("verify", "", "verify a previously written JSON file against -in and exit")
		stats       = flag.Bool("stats", false, "print dataset statistics and exit")
		audit       = flag.Int("audit", 0, "after anonymizing, audit the guarantee with N sampled adversaries")
		safe        = flag.Bool("safe", false, "repair cover-problem breaches at publish time (safe disassociation)")
		breaches    = flag.Bool("breaches", false, "emit a cover-problem breach audit as JSON; exit nonzero if breached")
		binaryOut   = flag.Bool("binary", false, "write the compact binary format instead of JSON (and expect it with -verify)")
		stream      = flag.Bool("stream", false, "anonymize with the sharded streaming engine in bounded memory")
		memBudget   = flag.String("mem-budget", "", "streaming memory budget, bytes with optional K/M/G suffix (default 256M)")
		shardRecs   = flag.Int("shard-records", 0, "shard cut in records — MergeUndersized/REFINE run per shard; applies to both streaming and in-memory runs (0 = one global shard, or derive from -mem-budget with -stream)")
		tmpDir      = flag.String("tmpdir", "", "directory for streaming spill files (default system temp)")
	)
	flag.Parse()
	cfg := runConfig{
		in: *in, out: *out, names: *names, k: *k, m: *m, maxCluster: *maxCluster,
		noRefine: *noRefine, parallel: *parallel, seed: *seed, reconstruct: *reconstruct,
		verify: *verify, stats: *stats, audit: *audit, safe: *safe, breaches: *breaches,
		binaryOut: *binaryOut, stream: *stream, memBudget: *memBudget, shardRecs: *shardRecs,
		tmpDir: *tmpDir,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "disasso:", err)
		os.Exit(1)
	}
}

// runConfig carries the parsed flag set.
type runConfig struct {
	in, out     string
	names       bool
	k, m        int
	maxCluster  int
	noRefine    bool
	parallel    int
	seed        uint64
	reconstruct int
	verify      string
	stats       bool
	audit       int
	safe        bool
	breaches    bool
	binaryOut   bool
	stream      bool
	memBudget   string
	shardRecs   int
	tmpDir      string
}

// parseBytes parses a byte count with an optional K/M/G (or KiB-style)
// suffix. It rejects values whose suffix multiplication would overflow
// int64 — "9223372036854775807K" used to wrap to a negative budget and be
// accepted silently.
func parseBytes(s string) (int64, error) {
	return dataset.ParseByteSize(s)
}

// openOutput resolves -out: the returned close function's error must be
// checked — on a full disk the failure often only surfaces at close time.
func openOutput(path string) (io.Writer, func() error, error) {
	if path == "" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func run(cfg runConfig) error {
	if cfg.in == "" {
		return fmt.Errorf("-in is required")
	}
	f, err := os.Open(cfg.in)
	if err != nil {
		return err
	}
	defer f.Close()

	if cfg.stream {
		if cfg.names || cfg.stats || cfg.verify != "" || cfg.reconstruct > 0 || cfg.audit > 0 || cfg.breaches {
			return fmt.Errorf("-stream supports only anonymization of integer-ID inputs (no -names/-stats/-verify/-reconstruct/-audit/-breaches)")
		}
		budget, err := parseBytes(cfg.memBudget)
		if err != nil {
			return err
		}
		w, closeOut, err := openOutput(cfg.out)
		if err != nil {
			return err
		}
		st, err := disasso.AnonymizeStream(f, w, disasso.StreamOptions{
			Core: disasso.Options{
				K: cfg.k, M: cfg.m, MaxClusterSize: cfg.maxCluster, MaxShardRecords: cfg.shardRecs,
				DisableRefine: cfg.noRefine, Parallel: cfg.parallel, Seed: cfg.seed,
				SafeDisassociation: cfg.safe,
			},
			MemoryBudget: budget,
			TempDir:      cfg.tmpDir,
			JSON:         !cfg.binaryOut,
		})
		if cerr := closeOut(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "stream: %d records, %d terms, %d shards (cut %d records), %d clusters, spilled=%v\n",
			st.Records, st.Terms, st.Shards, st.ShardRecords, st.Clusters, st.Spilled)
		return nil
	}

	var d *disasso.Dataset
	dict := disasso.NewDictionary()
	if cfg.names {
		d, err = disasso.ReadNames(f, dict)
	} else {
		d, err = disasso.ReadIDs(f)
	}
	if err != nil {
		return err
	}

	w, closeOut, err := openOutput(cfg.out)
	if err != nil {
		return err
	}
	err = emit(cfg, d, dict, w)
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	return err
}

// emit performs the requested action, writing results to w. Every write
// error propagates: a broken pipe or full disk must fail the run, not exit
// 0 with truncated output.
func emit(cfg runConfig, d *disasso.Dataset, dict *disasso.Dictionary, w io.Writer) error {
	if cfg.stats {
		st := d.ComputeStats()
		_, err := fmt.Fprintf(w, "records: %d\nterms: %d\nmax record: %d\navg record: %.2f\n",
			st.NumRecords, st.DomainSize, st.MaxRecord, st.AvgRecord)
		return err
	}

	if cfg.verify != "" {
		vf, err := os.Open(cfg.verify)
		if err != nil {
			return err
		}
		defer vf.Close()
		var a *disasso.Anonymized
		if cfg.binaryOut {
			a, err = disasso.ReadBinary(vf)
		} else {
			a, err = disasso.ReadJSON(vf)
		}
		if err != nil {
			return err
		}
		if err := disasso.VerifyAgainstOriginal(a, d); err != nil {
			return err
		}
		if cfg.breaches {
			return writeBreachReport(w, a)
		}
		_, err = fmt.Fprintf(w, "OK: %s is %d^%d-anonymous and consistent with %s\n", cfg.verify, a.K, a.M, cfg.in)
		return err
	}

	a, err := disasso.Anonymize(d, disasso.Options{
		K: cfg.k, M: cfg.m, MaxClusterSize: cfg.maxCluster, MaxShardRecords: cfg.shardRecs,
		DisableRefine: cfg.noRefine, Parallel: cfg.parallel, Seed: cfg.seed,
		SafeDisassociation: cfg.safe,
	})
	if err != nil {
		return err
	}
	if err := disasso.Verify(a); err != nil {
		return fmt.Errorf("internal error — output failed verification: %w", err)
	}
	if cfg.audit > 0 {
		if err := disasso.AuditGuarantee(a, d, cfg.m, cfg.k, cfg.audit, cfg.seed); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "audit: %d sampled adversaries, guarantee holds\n", cfg.audit)
	}

	if cfg.breaches {
		return writeBreachReport(w, a)
	}

	if cfg.reconstruct > 0 {
		var names *disasso.Dictionary
		if cfg.names {
			names = dict
		}
		return writeReconstructions(w, disasso.ReconstructMany(a, cfg.reconstruct, cfg.seed), names)
	}
	if cfg.binaryOut {
		return disasso.WriteBinary(w, a)
	}
	return disasso.WriteJSON(w, a)
}

// writeBreachReport emits the cover-problem audit of a publication as
// indented JSON, then fails the run when the publication is breached — the
// report is on stdout either way, so an operator sees what broke, and scripts
// get the verdict from the exit status.
func writeBreachReport(w io.Writer, a *disasso.Anonymized) error {
	rep := disasso.AuditBreaches(a)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if !rep.Clean() {
		return fmt.Errorf("%d of %d clusters breached (worst association probability %.3f > 1/%d); republish with -safe",
			rep.BreachedClusters, rep.Clusters, rep.MaxProbability, rep.K)
	}
	fmt.Fprintf(os.Stderr, "breach audit: %d clusters, no association above 1/%d\n", rep.Clusters, rep.K)
	return nil
}

// writeReconstructions emits the sampled datasets separated by literal "%%"
// lines (the multi-dataset framing -reconstruct documents), through dict
// when non-nil. The first write error — separator lines included — aborts
// and propagates.
func writeReconstructions(w io.Writer, datasets []*disasso.Dataset, dict *disasso.Dictionary) error {
	for i, r := range datasets {
		if i > 0 {
			if _, err := fmt.Fprintln(w, "%%"); err != nil {
				return err
			}
		}
		var err error
		if dict != nil {
			err = disasso.WriteNames(w, r, dict)
		} else {
			err = disasso.WriteIDs(w, r)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
