// Package reconstruct samples possible original datasets D' ∈ I(D_A) from a
// disassociated dataset, as Section 3 ("Reconstruction of datasets") and
// Section 6 of the paper describe: within each cluster, subrecords of the
// different chunks are combined row-wise after independent shuffles, shared
// chunks combine across the joint cluster's records, and term-chunk terms pad
// the result (their multiplicity is undisclosed, so each is materialized
// once).
//
// Reconstructed datasets have statistical properties close to the original —
// the paper's analysts run mining tasks on them, and averaging query results
// over several reconstructions improves accuracy (evaluated by Figure 7d).
package reconstruct

import (
	"math/rand/v2"

	"disasso/internal/core"
	"disasso/internal/dataset"
)

// Sample draws one reconstructed dataset. Records within a cluster are
// produced in slot order, so the output length always equals the original
// dataset's length and no record is empty (record chunks are assigned
// empty-slots-first, which combined with the Lemma 2 subrecord-count bound
// guarantees coverage; remaining empties are padded from the term chunk).
func Sample(a *core.Anonymized, rng *rand.Rand) *dataset.Dataset {
	out := dataset.New(a.NumRecords())
	for _, node := range a.Clusters {
		out.Records = append(out.Records, sampleNode(node, rng)...)
	}
	return out
}

// SampleMany draws n independent reconstructions.
func SampleMany(a *core.Anonymized, n int, rng *rand.Rand) []*dataset.Dataset {
	out := make([]*dataset.Dataset, n)
	for i := range out {
		out[i] = Sample(a, rng)
	}
	return out
}

// sampleNode reconstructs the records of one top-level cluster node.
func sampleNode(n *core.ClusterNode, rng *rand.Rand) []dataset.Record {
	leaves := n.Leaves(nil)
	total := 0
	for _, l := range leaves {
		total += l.Size
	}
	slots := make([]dataset.Record, total)

	// Record chunks: each leaf's chunks combine within that leaf's slots.
	// Precompute each slot's leaf record-chunk domain union: a shared
	// subrecord placed on a slot must not intersect it, or the combined
	// record would project onto the leaf's chunks differently than published
	// and the result would fall outside I(D_A) (the "conflict" analysis in
	// the proof of Lemma 3).
	slotDomain := make([]dataset.Record, total)
	off := 0
	for _, leaf := range leaves {
		for _, c := range leaf.RecordChunks {
			assignChunk(slots[off:off+leaf.Size], c.Subrecords, rng, true)
		}
		var domUnion dataset.Record
		for _, c := range leaf.RecordChunks {
			domUnion = domUnion.Union(c.Domain)
		}
		for i := off; i < off+leaf.Size; i++ {
			slotDomain[i] = domUnion
		}
		off += leaf.Size
	}

	// Shared chunks: each joint's chunks combine across all slots its leaves
	// cover. Leaves() is in-order, so every node covers a contiguous range.
	extras := make([][]dataset.Record, total)
	assignShared(n, slots, slotDomain, extras, 0, rng)

	// Term chunks: each term goes to one record of its leaf (presence is
	// certain, multiplicity is not), then any still-empty slot is padded.
	off = 0
	for _, leaf := range leaves {
		rangeSlots := slots[off : off+leaf.Size]
		for _, t := range leaf.TermChunk {
			i := rng.IntN(len(rangeSlots))
			rangeSlots[i] = rangeSlots[i].Union(dataset.Record{t})
		}
		if len(leaf.TermChunk) > 0 {
			for i, s := range rangeSlots {
				if len(s) == 0 {
					t := leaf.TermChunk[rng.IntN(len(leaf.TermChunk))]
					rangeSlots[i] = dataset.Record{t}
				}
			}
		}
		off += leaf.Size
	}
	return slots
}

// assignShared walks the joint structure bottom-up, assigning each node's
// shared chunks into the slot range its leaves occupy while avoiding slots
// whose conflict domains intersect the subrecord. After a node's chunks are
// assigned, their domains join the conflict domains of the covered slots
// (appended to the slots' extras lists, not unioned — cheap): a term may
// appear in the shared chunks of both a joint and its ancestor (with
// disjoint source occurrences, kept k-anonymous by Property 1), and an
// ancestor subrecord must not merge into a slot already carrying the term.
// It returns the number of slots the node covers.
func assignShared(n *core.ClusterNode, slots, slotDomain []dataset.Record, extras [][]dataset.Record, lo int, rng *rand.Rand) int {
	if n.IsLeaf() {
		return n.Simple.Size
	}
	covered := 0
	for _, child := range n.Children {
		covered += assignShared(child, slots, slotDomain, extras, lo+covered, rng)
	}
	for _, c := range n.SharedChunks {
		assignSharedChunk(slots[lo:lo+covered], slotDomain[lo:lo+covered], extras[lo:lo+covered], c.Subrecords, rng)
		for i := lo; i < lo+covered; i++ {
			extras[i] = append(extras[i], c.Domain)
		}
	}
	return covered
}

// conflicts reports whether sr intersects the slot's leaf record-chunk
// domain or any shared-chunk domain already assigned below it.
func conflicts(sr, leafDomain dataset.Record, extras []dataset.Record) bool {
	if len(sr.Intersect(leafDomain)) != 0 {
		return true
	}
	for _, d := range extras {
		if len(sr.Intersect(d)) != 0 {
			return true
		}
	}
	return false
}

// assignSharedChunk places each shared subrecord on a distinct random slot
// whose leaf record-chunk domains do not intersect it. Such slots always
// exist for the anonymizer's own output (each subrecord originated in a leaf
// whose term chunk — not record chunks — held its terms). When the greedy
// pass runs out of directly usable slots, a one-level augmentation relocates
// an earlier placement to free a compatible slot; only if that fails too
// (possible for hand-built inputs) does the subrecord share a conflicting
// slot and deduplicate.
func assignSharedChunk(slots, slotDomain []dataset.Record, extras [][]dataset.Record, subrecords []dataset.Record, rng *rand.Rand) {
	unused := make([]int, len(slots))
	for i := range unused {
		unused[i] = i
	}
	take := func(pos int) int {
		idx := unused[pos]
		unused[pos] = unused[len(unused)-1]
		unused = unused[:len(unused)-1]
		return idx
	}
	fits := func(sr dataset.Record, slot int) bool {
		return !conflicts(sr, slotDomain[slot], extras[slot])
	}
	type placement struct {
		slot int
		sr   dataset.Record
	}
	var placements []placement

	for _, sr := range subrecords {
		if len(unused) == 0 {
			break // defensive: more subrecords than slots
		}
		placed := -1
		// A few random probes, then a linear fallback scan.
		for probe := 0; probe < 16 && placed < 0; probe++ {
			pos := rng.IntN(len(unused))
			if fits(sr, unused[pos]) {
				placed = take(pos)
			}
		}
		if placed < 0 {
			for pos := range unused {
				if fits(sr, unused[pos]) {
					placed = take(pos)
					break
				}
			}
		}
		if placed < 0 {
			// Augment: move an earlier placement p from slot u to a free
			// compatible slot v, then put sr on u. Valid because subrecord
			// terms live only in this chunk's domain, so removing p's terms
			// from u is exact.
		augment:
			for pi := range placements {
				u := placements[pi].slot
				if !fits(sr, u) {
					continue
				}
				for pos := range unused {
					v := unused[pos]
					if fits(placements[pi].sr, v) {
						slots[u] = slots[u].Subtract(placements[pi].sr)
						slots[v] = slots[v].Union(placements[pi].sr)
						take(pos)
						placements[pi].slot = v
						placed = u
						break augment
					}
				}
			}
		}
		if placed < 0 {
			forcedMerges++
			placed = take(rng.IntN(len(unused)))
		}
		slots[placed] = slots[placed].Union(sr)
		placements = append(placements, placement{slot: placed, sr: sr})
	}
}

// forcedMerges counts shared subrecords placed on conflicting slots after
// the augmentation failed; only tests read it.
var forcedMerges int

// assignChunk unions the chunk's subrecords into distinct random slots. With
// preferEmpty, still-empty slots are filled first (within each group the
// order is random); this keeps the Lemma 2 guarantee that enough subrecords
// exist to leave no record empty.
func assignChunk(slots []dataset.Record, subrecords []dataset.Record, rng *rand.Rand, preferEmpty bool) {
	n := len(slots)
	order := make([]int, 0, n)
	if preferEmpty {
		var empty, full []int
		for i, s := range slots {
			if len(s) == 0 {
				empty = append(empty, i)
			} else {
				full = append(full, i)
			}
		}
		rng.Shuffle(len(empty), func(i, j int) { empty[i], empty[j] = empty[j], empty[i] })
		rng.Shuffle(len(full), func(i, j int) { full[i], full[j] = full[j], full[i] })
		order = append(order, empty...)
		order = append(order, full...)
	} else {
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for i, sr := range subrecords {
		if i >= len(order) {
			break // defensive: malformed chunk with more subrecords than slots
		}
		slot := order[i]
		slots[slot] = slots[slot].Union(sr)
	}
}
