package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"disasso/internal/dataset"
)

// checkEstimates verifies one support answer against its request: one
// estimate per itemset, in order, each with 0 ≤ Lower ≤ Expected ≤ Upper.
func checkEstimates(batch [][]dataset.Term, ests []estimate) error {
	if len(ests) != len(batch) {
		return fmt.Errorf("%d estimates for %d itemsets", len(ests), len(batch))
	}
	for i, e := range ests {
		if !slices.Equal(e.Itemset, batch[i]) {
			return fmt.Errorf("estimate %d answers %v, asked %v", i, e.Itemset, batch[i])
		}
		if e.Lower < 0 || float64(e.Lower) > e.Expected || e.Expected > float64(e.Upper) {
			return fmt.Errorf("itemset %v: bounds out of order: lower %d expected %v upper %d", e.Itemset, e.Lower, e.Expected, e.Upper)
		}
	}
	return nil
}

// trueSupport counts the original records containing every term of the
// normalized itemset, by a plain scan.
func trueSupport(records []dataset.Record, s []dataset.Term) int {
	n := 0
	for _, r := range records {
		i := 0
		for _, t := range r {
			if i < len(s) && t == s[i] {
				i++
			}
		}
		if i == len(s) {
			n++
		}
	}
	return n
}

// checkTruth verifies Lower ≤ true support ≤ Upper for every probe.
func checkTruth(records []dataset.Record, probes [][]dataset.Term, ests []estimate) error {
	if err := checkEstimates(probes, ests); err != nil {
		return err
	}
	for i, p := range probes {
		if sup := trueSupport(records, p); sup < ests[i].Lower || sup > ests[i].Upper {
			return fmt.Errorf("itemset %v: true support %d outside [%d, %d]", p, sup, ests[i].Lower, ests[i].Upper)
		}
	}
	return nil
}

// checkAudit verifies a /breaches body reports a clean publication.
func checkAudit(body []byte) error {
	var resp struct {
		Report struct {
			BreachedClusters int               `json:"breachedClusters"`
			Findings         []json.RawMessage `json:"findings"`
		} `json:"report"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding breach report: %w", err)
	}
	if n := len(resp.Report.Findings); n > 0 || resp.Report.BreachedClusters > 0 {
		return fmt.Errorf("safe publication audits dirty: %d findings in %d clusters", n, resp.Report.BreachedClusters)
	}
	return nil
}

// checkDelta verifies an append/remove answer reports the batch and the
// record count the benchmark expects.
func checkDelta(info deltaInfo, appended, removed, records int) error {
	if info.Appended != appended || info.Removed != removed {
		return fmt.Errorf("delta reports +%d/-%d records, sent +%d/-%d", info.Appended, info.Removed, appended, removed)
	}
	if info.Records != records {
		return fmt.Errorf("after delta the dataset has %d records, want %d", info.Records, records)
	}
	return nil
}

// checkPublish verifies a publish answer's record count and engine.
func checkPublish(info datasetInfo, records int, streamed bool) error {
	if info.Records != records || info.Streamed != streamed {
		return fmt.Errorf("publish of %q reports %d records (streamed=%v), want %d (streamed=%v)",
			info.Name, info.Records, info.Streamed, records, streamed)
	}
	if streamed && info.ShardRecords <= 0 {
		return fmt.Errorf("streamed publish of %q reports shard_records %d, want > 0", info.Name, info.ShardRecords)
	}
	return nil
}

// withoutVersion re-encodes a JSON object with its version field removed
// and keys sorted. The version counts the operations a run completed, so it
// is left out of anything compared across runs.
func withoutVersion(body []byte) ([]byte, error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	delete(m, "version")
	return json.Marshal(m)
}

// fingerprints pins, per workload at its default size and seed 1, the
// SHA-256 of the generated inputs and of the probe answers.
type fingerprints map[string]struct {
	Input  string `json:"input"`
	Probes string `json:"probes"`
}

// loadFingerprints reads the pinned fingerprints file.
func loadFingerprints(path string) (fingerprints, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var fp fingerprints
	if err := json.Unmarshal(b, &fp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return fp, nil
}

// check compares one artifact's fingerprint with the pinned one; a workload
// without a pin (or a nil table) passes.
func (fp fingerprints) check(workload, artifact, got string) error {
	pin, ok := fp[workload]
	if !ok {
		return nil
	}
	want := pin.Input
	if artifact == "probes" {
		want = pin.Probes
	}
	if want != "" && got != want {
		return fmt.Errorf("workload %s: %s fingerprint %s does not match the pinned %s", workload, artifact, got, want)
	}
	return nil
}

// probeDigest accumulates the probe answers of a run in a canonical form:
// decoded estimates and version-free stats, re-encoded by the benchmark, so the
// digest depends on what disassod answers and not on how it formats it.
type probeDigest struct{ parts [][]byte }

func (p *probeDigest) add(name string, stats []byte, ests []estimate) error {
	s, err := withoutVersion(stats)
	if err != nil {
		return fmt.Errorf("stats of %q: %w", name, err)
	}
	e, err := json.Marshal(ests)
	if err != nil {
		return err
	}
	p.parts = append(p.parts, []byte(name), s, e)
	return nil
}

func (p *probeDigest) sum() string {
	h := sha256.New()
	for _, b := range p.parts {
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
