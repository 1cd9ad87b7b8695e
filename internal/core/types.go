// Package core implements the paper's primary contribution: the
// disassociation anonymization transform for sparse multidimensional data
// (Terrovitis, Liagouris, Mamoulis, Skiadopoulos: "Privacy Preservation by
// Disassociation", PVLDB 5(10), 2012).
//
// Disassociation partitions the original records horizontally into clusters
// of similar records (HORPART), vertically partitions each cluster into
// k^m-anonymous record chunks plus one term chunk (VERPART), and finally
// refines the result by forming joint clusters with shared chunks (REFINE).
// The published dataset preserves every original term but hides which
// infrequent term combinations co-occurred in a record, guaranteeing that an
// adversary knowing up to m terms of a record cannot narrow it down to fewer
// than k candidate records in some plausible original dataset (Guarantee 1).
package core

import (
	"disasso/internal/dataset"
)

// Chunk is a vertical partition of a cluster: a domain (a subset of the
// cluster's terms) together with the non-empty projections of the cluster's
// records onto that domain. Subrecord order is randomized at construction —
// the association between subrecords of different chunks is exactly the
// information disassociation hides. Record chunks and shared chunks use the
// same representation.
type Chunk struct {
	// Domain is the normalized set of terms T_i the chunk projects onto.
	Domain dataset.Record
	// Subrecords holds the non-empty projections, in randomized order, with
	// bag semantics (duplicates allowed). Projections that came out empty are
	// not materialized; their count is implied by the owning cluster's Size.
	Subrecords []dataset.Record
}

// Clone returns a deep copy of the chunk.
func (c Chunk) Clone() Chunk {
	out := Chunk{Domain: c.Domain.Clone(), Subrecords: make([]dataset.Record, len(c.Subrecords))}
	for i, r := range c.Subrecords {
		out.Subrecords[i] = r.Clone()
	}
	return out
}

// Cluster is a published simple cluster: its original record count (shown
// explicitly, as Section 3 requires), its k^m-anonymous record chunks and its
// term chunk.
type Cluster struct {
	// Size is |P|, the number of original records in the cluster.
	Size int
	// RecordChunks are the chunks C_1..C_v; each is k^m-anonymous.
	RecordChunks []Chunk
	// TermChunk C_T is the set of terms of the cluster that were not placed
	// in any record chunk. Their multiplicities and correlations are not
	// disclosed.
	TermChunk dataset.Record
}

// ClusterNode is one node of the published forest. A leaf node carries a
// simple Cluster; an interior node is a joint cluster carrying the shared
// chunks built from its descendants' term chunks (Section 3, "Refining").
type ClusterNode struct {
	// Simple is non-nil exactly when the node is a leaf.
	Simple *Cluster
	// Children are the constituent clusters of a joint node.
	Children []*ClusterNode
	// SharedChunks are the chunks built over refining terms drawn from the
	// descendants' term chunks. Empty for leaves.
	SharedChunks []Chunk
}

// IsLeaf reports whether the node is a simple cluster.
func (n *ClusterNode) IsLeaf() bool { return n.Simple != nil }

// Size returns the number of original records covered by the node: |P| for a
// leaf, the sum over children for a joint cluster.
func (n *ClusterNode) Size() int {
	if n.IsLeaf() {
		return n.Simple.Size
	}
	total := 0
	for _, c := range n.Children {
		total += c.Size()
	}
	return total
}

// Leaves appends the node's simple clusters, left to right, to dst and
// returns it.
func (n *ClusterNode) Leaves(dst []*Cluster) []*Cluster {
	if n.IsLeaf() {
		return append(dst, n.Simple)
	}
	for _, c := range n.Children {
		dst = c.Leaves(dst)
	}
	return dst
}

// Walk visits the node and all its descendants, parents before children.
func (n *ClusterNode) Walk(fn func(*ClusterNode)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Anonymized is the published disassociated dataset D_A: a forest of cluster
// nodes plus the parameters it was anonymized with.
type Anonymized struct {
	K, M     int
	Clusters []*ClusterNode
}

// NumRecords returns the total number of original records across clusters.
func (a *Anonymized) NumRecords() int {
	total := 0
	for _, n := range a.Clusters {
		total += n.Size()
	}
	return total
}

// AllLeaves returns every simple cluster in the forest, in order.
func (a *Anonymized) AllLeaves() []*Cluster {
	var out []*Cluster
	for _, n := range a.Clusters {
		out = n.Leaves(out)
	}
	return out
}

// AllChunks returns every record chunk and shared chunk in the forest. Term
// chunks are not included (they expose terms, not subrecords).
func (a *Anonymized) AllChunks() []Chunk {
	var out []Chunk
	for _, n := range a.Clusters {
		n.Walk(func(cn *ClusterNode) {
			if cn.IsLeaf() {
				out = append(out, cn.Simple.RecordChunks...)
			} else {
				out = append(out, cn.SharedChunks...)
			}
		})
	}
	return out
}

// TermChunkTerms returns, per distinct term, in how many term chunks it
// appears across all leaves.
func (a *Anonymized) TermChunkTerms() map[dataset.Term]int {
	//lint:ignore densedomain export-path analysis API keyed by global terms, off the hot path
	out := make(map[dataset.Term]int)
	for _, leaf := range a.AllLeaves() {
		for _, t := range leaf.TermChunk {
			out[t]++
		}
	}
	return out
}

// LowerBoundSupports computes, as Section 6 describes, supports that are
// certain to exist in any original dataset: every appearance of a term in a
// record or shared chunk counts, plus one appearance per term chunk the term
// occurs in (a term chunk discloses presence, not multiplicity).
func (a *Anonymized) LowerBoundSupports() map[dataset.Term]int {
	//lint:ignore densedomain export-path analysis API keyed by global terms, off the hot path
	out := make(map[dataset.Term]int)
	for _, c := range a.AllChunks() {
		for _, sr := range c.Subrecords {
			for _, t := range sr {
				out[t]++
			}
		}
	}
	//lint:deterministic order-independent merge of per-term counts
	for t, n := range a.TermChunkTerms() {
		out[t] += n
	}
	return out
}

// Domain returns the sorted set of all terms appearing anywhere in the
// anonymized dataset (record chunks, shared chunks and term chunks). By
// construction this equals the original dataset's domain: disassociation
// never deletes a term. Subrecords need no walk: a subrecord's terms lie
// inside its chunk's domain.
func (a *Anonymized) Domain() []dataset.Term {
	var lists []dataset.Record
	for _, n := range a.Clusters {
		n.Walk(func(cn *ClusterNode) {
			if !cn.IsLeaf() {
				for _, c := range cn.SharedChunks {
					lists = append(lists, c.Domain)
				}
				return
			}
			for _, c := range cn.Simple.RecordChunks {
				lists = append(lists, c.Domain)
			}
			lists = append(lists, cn.Simple.TermChunk)
		})
	}
	return dataset.DistinctTerms(lists)
}
