// Package inputs generates everything a disassobench run feeds to disassod:
// the Quest dataset, the held-out delta records, the probe itemsets and the
// per-client query streams. All of it is a pure function of the workload
// config and its seed, and none of it is derived from a publication, so a
// change to the program under test cannot change the inputs it is measured
// on (the pinned input fingerprints catch a change to the generator itself).
//
// The dataset itself does not vary with the seed. What disassociation costs
// depends on the particular records far more than on anything else: safe
// publishes of 10k records drawn from eight Quest seeds took 1.07 s to
// 4.02 s on one machine, against 2.62 s to 3.02 s for one dataset under
// eight anonymization seeds. A seed-varied dataset would therefore swamp
// any regression bound, so each workload publishes the first Records
// records of the Quest generator at DataSeed, and the held-out delta
// records are fixed the same way. The run seed drives everything else: the
// anonymization seed of every publish, the probe itemsets and the query
// streams.
package inputs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"

	"disasso/internal/dataset"
	"disasso/internal/quest"
)

// Workload names, in the order a full run executes them.
const (
	Publish     = "publish"
	PublishSafe = "publish-safe"
	ReadZipf    = "read-zipf"
	ReadWide    = "read-wide"
)

// Workloads lists every workload the benchmark knows.
var Workloads = []string{Publish, PublishSafe, ReadZipf, ReadWide}

// Publication parameters shared by every workload: the paper's k=5, m=2 and
// its Quest defaults (5k-term domain, average record length 10), generated
// from a fixed Quest seed.
const (
	K          = 5
	M          = 2
	DomainSize = 5000
	AvgLen     = 10
	DataSeed   = 1
)

// Config fixes one workload run: which inputs to generate and how much work
// each phase does. Default returns the benchmark's sizes; tests shrink them.
type Config struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Records is the size of the published dataset.
	Records int `json:"records"`
	// DeltaBatch held-out records go into each append/remove, and each
	// publish cycle runs one append/remove pair for each of DeltaPairs
	// distinct batches (publish only).
	DeltaBatch int `json:"delta_batch"`
	DeltaPairs int `json:"delta_pairs"`
	// Batch is the number of itemsets per support request, Probes the
	// number of itemsets checked against the original records.
	Batch  int `json:"batch"`
	Probes int `json:"probes"`
	// Seconds is the timed phase; Warmup an untimed lead-in (reads only).
	Seconds float64 `json:"seconds"`
	Warmup  float64 `json:"warmup"`
	// Clients is the number of closed-loop clients in the timed phase.
	Clients int `json:"clients"`
	// Setups is how many times the set-up is timed; Restarts how many
	// SIGTERM restarts follow the timed phase.
	Setups   int `json:"setups"`
	Restarts int `json:"restarts"`
	// ReplayOps is the fixed number of timed-phase operations the traced
	// replay performs (cycles, safe publishes or read batches).
	ReplayOps int `json:"replay_ops"`
}

// Default returns the benchmark configuration of a workload.
func Default(workload string, seed uint64, seconds float64) (Config, error) {
	c := Config{
		Workload: workload, Seed: seed, Seconds: seconds,
		Records: 50_000, Batch: 16, Probes: 256, Clients: 1,
		Setups: 3, Restarts: 15, ReplayOps: 1,
	}
	switch workload {
	case Publish:
		// 20k records, not 50k: a 50k cycle took 5 to 13 s, so a timed
		// phase held only one or two of them.
		c.Records = 20_000
		c.DeltaBatch, c.DeltaPairs = 20, 2
	case PublishSafe:
		c.Records = 10_000
		c.ReplayOps = 3
	case ReadZipf, ReadWide:
		c.Clients = 2
		c.Warmup = 3
		c.ReplayOps = 300
	default:
		return Config{}, fmt.Errorf("unknown workload %q (want one of %v)", workload, Workloads)
	}
	return c, nil
}

// IsRead reports whether the workload is a read mix.
func (c Config) IsRead() bool { return c.Workload == ReadZipf || c.Workload == ReadWide }

// Inputs is everything generated for one run.
type Inputs struct {
	Cfg Config
	// Records are the original records in upload order; Text is their
	// upload body (one record of space-separated term ids per line).
	Records []dataset.Record
	Text    []byte
	// DeltaTexts are the bodies of the held-out append/remove batches.
	// Held-out records occur nowhere in Records and are pairwise distinct,
	// so removing a batch right after appending it restores the original
	// record sequence exactly.
	DeltaTexts [][]byte
	// Probes are the itemsets checked against the original records.
	Probes [][]dataset.Term

	ranked   []dataset.Term   // terms with support > 0, by descending support
	universe [][]dataset.Term // read-zipf's 512 repeatable itemsets
}

// Stream constants separate the PCG streams drawn from one seed.
const (
	streamProbes   = 0x70726f6265
	streamUniverse = 0x756e6976
	streamClient   = 0x636c69656e74
)

// Generate builds the inputs of a configuration.
func Generate(cfg Config) (*Inputs, error) {
	held := cfg.DeltaBatch * cfg.DeltaPairs
	qc := quest.DefaultConfig()
	qc.NumTransactions = cfg.Records
	if held > 0 {
		// Duplicates of published records are skipped, so generate a
		// generous surplus.
		qc.NumTransactions += 4*held + 100
	}
	qc.DomainSize = DomainSize
	qc.AvgTransLen = AvgLen
	qc.Seed = DataSeed
	g, err := quest.New(qc)
	if err != nil {
		return nil, err
	}
	all := g.Generate().Records
	in := &Inputs{Cfg: cfg, Records: all[:cfg.Records]}
	in.Text = EncodeText(in.Records)

	if held > 0 {
		// The held-out records are the first ones generated past the
		// published prefix that duplicate neither a published record nor
		// each other. Like the dataset they do not vary with the seed: what
		// a delta costs depends on whether it moves a shard boundary, which
		// some batches do and others do not.
		seen := make(map[string]bool, len(in.Records))
		for _, r := range in.Records {
			seen[key(r)] = true
		}
		var picked []dataset.Record
		for _, r := range all[cfg.Records:] {
			if len(picked) == held {
				break
			}
			if k := key(r); !seen[k] {
				seen[k] = true
				picked = append(picked, r)
			}
		}
		if len(picked) < held {
			return nil, fmt.Errorf("only %d distinct held-out records, need %d", len(picked), held)
		}
		for i := 0; i < cfg.DeltaPairs; i++ {
			in.DeltaTexts = append(in.DeltaTexts, EncodeText(picked[i*cfg.DeltaBatch:(i+1)*cfg.DeltaBatch]))
		}
	}

	in.rankTerms()
	urng := rand.New(rand.NewPCG(cfg.Seed, streamUniverse))
	in.universe = make([][]dataset.Term, 512)
	for i := range in.universe {
		in.universe[i] = in.recordSubset(urng)
	}
	prng := rand.New(rand.NewPCG(cfg.Seed, streamProbes))
	for i := 0; i < cfg.Probes; i++ {
		switch i % 4 {
		case 0: // a frequent singleton
			in.Probes = append(in.Probes, []dataset.Term{in.ranked[prng.IntN(min(64, len(in.ranked)))]})
		case 1: // any published singleton
			in.Probes = append(in.Probes, []dataset.Term{in.ranked[prng.IntN(len(in.ranked))]})
		default: // a co-occurring 2-3-term itemset
			in.Probes = append(in.Probes, in.recordSubset(prng))
		}
	}
	return in, nil
}

// key is a map key for a normalized record.
func key(r dataset.Record) string {
	b := make([]byte, 0, 6*len(r))
	for _, t := range r {
		b = strconv.AppendInt(b, int64(t), 10)
		b = append(b, ' ')
	}
	return string(b)
}

// EncodeText renders records in the upload format.
func EncodeText(recs []dataset.Record) []byte {
	var b []byte
	for _, r := range recs {
		for i, t := range r {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(t), 10)
		}
		b = append(b, '\n')
	}
	return b
}

// rankTerms orders the terms present in the originals by descending support
// (ties by term id).
func (in *Inputs) rankTerms() {
	sup := make([]int, DomainSize)
	for _, r := range in.Records {
		for _, t := range r {
			sup[t]++
		}
	}
	for t, s := range sup {
		if s > 0 {
			in.ranked = append(in.ranked, dataset.Term(t))
		}
	}
	slices.SortStableFunc(in.ranked, func(a, b dataset.Term) int { return sup[b] - sup[a] })
}

// recordSubset draws a 2- or 3-term itemset from a uniformly random original
// record holding at least two terms, so the itemset has support ≥ 1.
func (in *Inputs) recordSubset(rng *rand.Rand) []dataset.Term {
	for {
		r := in.Records[rng.IntN(len(in.Records))]
		if len(r) < 2 {
			continue
		}
		n := min(2+rng.IntN(2), len(r))
		s := make([]dataset.Term, 0, n)
		for _, i := range rng.Perm(len(r))[:n] {
			s = append(s, r[i])
		}
		slices.Sort(s)
		return s
	}
}

// QueryGen draws one client's itemsets. read-zipf repeats heavily: 60 % are
// singletons drawn Zipf s=1.3 over the support ranking, 40 % are 2-3-term
// itemsets drawn Zipf s=1.2 over a 512-entry universe. read-wide barely
// repeats: 20 % are uniform singletons over the domain, 80 % are 2-3-term
// itemsets drawn fresh from a uniformly random original record.
type QueryGen struct {
	in       *Inputs
	rng      *rand.Rand
	single   *rand.Zipf
	itemsets *rand.Zipf
}

// Queries returns the query stream of one client. Client streams are
// independent and each is a pure function of (seed, workload, client).
func (in *Inputs) Queries(client int) *QueryGen {
	rng := rand.New(rand.NewPCG(in.Cfg.Seed, streamClient+uint64(client)))
	g := &QueryGen{in: in, rng: rng}
	if in.Cfg.Workload == ReadZipf {
		g.single = rand.NewZipf(rng, 1.3, 1, uint64(len(in.ranked)-1))
		g.itemsets = rand.NewZipf(rng, 1.2, 1, uint64(len(in.universe)-1))
	}
	return g
}

// Next returns the next itemset, normalized.
func (g *QueryGen) Next() []dataset.Term {
	p := g.rng.Float64()
	if g.single != nil {
		if p < 0.6 {
			return []dataset.Term{g.in.ranked[g.single.Uint64()]}
		}
		return g.in.universe[g.itemsets.Uint64()]
	}
	if p < 0.2 {
		return []dataset.Term{dataset.Term(g.rng.IntN(DomainSize))}
	}
	return g.in.recordSubset(g.rng)
}

// Batch returns the next n itemsets.
func (g *QueryGen) Batch(n int) [][]dataset.Term {
	b := make([][]dataset.Term, n)
	for i := range b {
		b[i] = g.Next()
	}
	return b
}

// fingerprintBatches is how many batches of each client stream the input
// fingerprint covers: a fixed prefix, since a timed run's length varies.
const fingerprintBatches = 64

// Fingerprint is the SHA-256 of every generated input of the run: upload
// text, anonymization seed, delta bodies, probe itemsets and a fixed prefix
// of each client's query stream.
func (in *Inputs) Fingerprint() string {
	h := sha256.New()
	h.Write(in.Text)
	fmt.Fprintf(h, "seed=%d\n", in.Cfg.Seed)
	for _, d := range in.DeltaTexts {
		h.Write([]byte{0})
		h.Write(d)
	}
	enc := json.NewEncoder(h)
	_ = enc.Encode(in.Probes) // writes to a hash cannot fail
	if in.Cfg.IsRead() {
		for c := 0; c < in.Cfg.Clients; c++ {
			g := in.Queries(c)
			for i := 0; i < fingerprintBatches; i++ {
				_ = enc.Encode(g.Batch(in.Cfg.Batch))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
