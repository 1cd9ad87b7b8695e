package core

import (
	"fmt"
	"slices"
	"sort"

	"disasso/internal/dataset"
)

// Cover-problem breach detection over the published form.
//
// k^m-anonymity (Guarantee 1) bounds how precisely an adversary can single
// out a *record*, but not how confidently they can link *terms across
// chunks*: follow-up work (Barakat et al., "On the Evaluation of the Privacy
// Breach in Disassociated Set-Valued Datasets"; Awad et al., "Safe
// Disassociation of Set-Valued Datasets") shows that chunk combinations can
// cover each other so tightly that an association is learned with
// probability above 1/k despite every chunk passing the k^m check.
//
// The detector works over the uniform-reconstruction model the package's
// reconstruction sampler implements: within one top-level cluster node,
// every chunk's subrecords are assigned to the slots of the range the chunk
// covers — a leaf's record chunks to that leaf's Size slots, a joint's
// shared chunks to the slots of all leaves under the joint — independently
// and uniformly, and each term-chunk term materializes in one uniformly
// chosen slot of its leaf (a term chunk discloses presence, not
// multiplicity, so one certain occurrence is the information actually
// published). Under that model, for an anchor term b known to the adversary
// (drawn from source i) and a candidate learned term a (from source l ≠ i):
//
//	P(record has a | record has b) = s_a / max(n_l, n_i)
//
// where s_a is a's subrecord support in its source and n_l, n_i are the
// covered range sizes (ranges nest, so the pair co-occurs only inside the
// smaller range, diluted over the larger). The association is a breach when
// that probability exceeds 1/k — evaluated exactly, by integer
// cross-multiplication, never in floating point.
//
// Pairs are complete: for any larger cross-chunk itemset T with anchor set
// B, every additional learned factor multiplies the probability by s/n ≤ 1
// and every extra anchor term only shrinks the range intersection, so
// P(T|B) ≤ P(a|b) for each single learned term a of T and single anchor b.
// A publication with no breaching pair therefore has no breaching itemset
// at any size — the exhaustive oracle in internal/breach re-derives this by
// brute-force enumeration.
type srcKind uint8

const (
	srcRecordChunk srcKind = iota
	srcTermChunk
	srcShared
)

// breachSrc is one association source of a top-level cluster node: a record
// chunk, a leaf's term chunk, or a joint's shared chunk, with the slot range
// it covers and the subrecord support of each of its terms.
type breachSrc struct {
	kind    srcKind
	leaf    *Cluster // owning leaf for record/term-chunk sources
	leafIdx int      // the owning leaf's in-order position in the node
	chunk   int      // chunk index within the owner (record/shared kinds)
	lo, n   int      // covered slot range [lo, lo+n)
	terms   dataset.Record
	sup     []int // per terms[i]: subrecords containing it (1 for term chunks)
}

// where is the source's canonical locus, stable across runs and restarts.
// It is formatted only for reported breaches.
func (s *breachSrc) where() string {
	switch s.kind {
	case srcRecordChunk:
		return fmt.Sprintf("leaf %d record chunk %d", s.leafIdx, s.chunk)
	case srcTermChunk:
		return fmt.Sprintf("leaf %d term chunk", s.leafIdx)
	}
	return fmt.Sprintf("joint at slots %d-%d shared chunk %d", s.lo, s.lo+s.n-1, s.chunk)
}

// chunkSupports counts, per domain term, the subrecords containing it.
func chunkSupports(c *Chunk) []int {
	sup := make([]int, len(c.Domain))
	for _, sr := range c.Subrecords {
		for _, t := range sr {
			if i, ok := slices.BinarySearch(c.Domain, t); ok {
				sup[i]++
			}
		}
	}
	return sup
}

// nodeSources appends the sources one tree node owns — not its
// descendants' — to dst: a leaf's record chunks then its term chunk, or a
// joint's shared chunks. The node covers slots [lo, lo+size); leafIdx is a
// leaf's in-order position.
func nodeSources(dst []breachSrc, n *ClusterNode, leafIdx, lo, size int) []breachSrc {
	if !n.IsLeaf() {
		for ci := range n.SharedChunks {
			c := &n.SharedChunks[ci]
			dst = append(dst, breachSrc{
				kind: srcShared, chunk: ci, lo: lo, n: size,
				terms: c.Domain, sup: chunkSupports(c),
			})
		}
		return dst
	}
	cl := n.Simple
	for ci := range cl.RecordChunks {
		c := &cl.RecordChunks[ci]
		dst = append(dst, breachSrc{
			kind: srcRecordChunk, leaf: cl, leafIdx: leafIdx, chunk: ci, lo: lo, n: size,
			terms: c.Domain, sup: chunkSupports(c),
		})
	}
	if len(cl.TermChunk) > 0 {
		dst = append(dst, termChunkSource(cl, leafIdx, lo, size))
	}
	return dst
}

// termChunkSource is the source of leaf cl's term chunk: support 1 per term.
func termChunkSource(cl *Cluster, leafIdx, lo, size int) breachSrc {
	sup := make([]int, len(cl.TermChunk))
	for i := range sup {
		sup[i] = 1
	}
	return breachSrc{
		kind: srcTermChunk, leaf: cl, leafIdx: leafIdx, lo: lo, n: size,
		terms: cl.TermChunk, sup: sup,
	}
}

// collectSources enumerates the association sources of one top-level node in
// canonical order: a post-order walk, so leaves left to right (record
// chunks, then the term chunk), and each joint's shared chunks after its
// descendants. Slot offsets follow the in-order leaf layout, so a joint
// covers the contiguous range of its leaves.
func collectSources(root *ClusterNode) []breachSrc {
	var out []breachSrc
	leafIdx := 0
	var walk func(n *ClusterNode, lo int) int
	walk = func(n *ClusterNode, lo int) int {
		if n.IsLeaf() {
			out = nodeSources(out, n, leafIdx, lo, n.Simple.Size)
			leafIdx++
			return lo + n.Simple.Size
		}
		end := lo
		for _, c := range n.Children {
			end = walk(c, end)
		}
		out = nodeSources(out, n, 0, lo, end-lo)
		return end
	}
	walk(root, 0)
	return out
}

func (s *breachSrc) overlaps(o *breachSrc) bool {
	return s.lo < o.lo+o.n && o.lo < s.lo+s.n
}

// Breach is one minimal cover-problem breach: knowing Anchor, an adversary
// learns Learned with probability Num/Den > 1/k. Where and AnchorWhere name
// the sources (chunks) the two terms come from in the canonical layout of
// the cluster's node; larger breaching itemsets always contain a breaching
// pair, so reporting pairs is complete.
type Breach struct {
	// Cluster is the top-level cluster index (set by breach.Audit; -1 when
	// the breach was detected on a bare node).
	Cluster     int          `json:"cluster"`
	Where       string       `json:"where"`
	AnchorWhere string       `json:"anchorWhere"`
	Anchor      dataset.Term `json:"anchor"`
	Learned     dataset.Term `json:"learned"`
	// Num/Den is the exact association probability s / max(n_l, n_a).
	Num int `json:"num"`
	Den int `json:"den"`
}

// breachSite is a detected breach together with the source indices it binds
// to; the repair loop consumes these.
type breachSite struct {
	Breach
	src, anchor int
}

// anchorTermIn returns the smallest term of src with positive support, other
// than a.
func anchorTermIn(src *breachSrc, a dataset.Term) (dataset.Term, bool) {
	for i, t := range src.terms {
		if t != a && src.sup[i] > 0 {
			return t, true
		}
	}
	return 0, false
}

// findAnchor picks the witness anchor for a heavy learned term: the
// overlapping source maximizing the association probability (smallest
// effective range), ties broken by canonical source order, then the
// smallest eligible term within it. Only anchors whose pair still clears
// the 1/k threshold qualify.
func findAnchor(srcs []breachSrc, li int, a dataset.Term, k, s int) (ai int, b dataset.Term, effN int, ok bool) {
	l := &srcs[li]
	ai = -1
	for i := range srcs {
		if i == li {
			continue
		}
		src := &srcs[i]
		if !l.overlaps(src) {
			continue
		}
		eff := max(l.n, src.n)
		if k*s <= eff {
			continue // diluted below threshold by the bigger range
		}
		if ai != -1 && eff >= effN {
			continue // canonical order: first source at the best range wins
		}
		if t, found := anchorTermIn(src, a); found {
			ai, b, effN = i, t, eff
		}
	}
	return ai, b, effN, ai != -1
}

// detectBreaches runs the pair detector over collected sources, returning
// breaches sorted by descending probability (exact cross-multiplication),
// then canonical source order, then learned term. Loci are left empty:
// NodeBreaches formats them for the breaches it reports.
func detectBreaches(srcs []breachSrc, k int) []breachSite {
	var out []breachSite
	for li := range srcs {
		l := &srcs[li]
		// Term-chunk sources (s = 1, n = leaf size) are scanned too: the
		// pipeline keeps every leaf at Size ≥ k, so they never clear the
		// threshold there, but the detector must stay honest on arbitrary
		// hand-built nodes (the oracle enumerates them all the same).
		for ti, a := range l.terms {
			s := l.sup[ti]
			if k*s <= l.n {
				continue
			}
			ai, b, effN, ok := findAnchor(srcs, li, a, k, s)
			if !ok {
				continue // no co-locatable anchor: nothing to link a to
			}
			out = append(out, breachSite{
				Breach: Breach{Cluster: -1, Anchor: b, Learned: a, Num: s, Den: effN},
				src:    li, anchor: ai,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		bi, bj := &out[i], &out[j]
		if d := bi.Num*bj.Den - bj.Num*bi.Den; d != 0 {
			return d > 0
		}
		if bi.src != bj.src {
			return bi.src < bj.src
		}
		return bi.Learned < bj.Learned
	})
	return out
}

// NodeBreaches reports every minimal cover-problem breach of one top-level
// cluster node at threshold 1/k, sorted by descending probability. The node
// is not modified. Results are deterministic for a fixed node.
func NodeBreaches(n *ClusterNode, k int) []Breach {
	srcs := collectSources(n)
	sites := detectBreaches(srcs, k)
	out := make([]Breach, len(sites))
	for i, s := range sites {
		out[i] = s.Breach
		out[i].Where, out[i].AnchorWhere = srcs[s.src].where(), srcs[s.anchor].where()
	}
	return out
}
