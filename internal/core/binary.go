package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"disasso/internal/dataset"
)

// Binary wire format: a compact alternative to JSON for archiving large
// publications (records are delta-encoded varints, so a 515k-record POS
// publication shrinks roughly 8× versus indented JSON).
//
// Layout:
//
//	magic "DSA1"
//	uvarint K, uvarint M, uvarint len(Clusters)
//	node := tag(0x00 leaf | 0x01 joint)
//	  leaf : uvarint Size, uvarint #chunks, chunk..., record(TermChunk)
//	  joint: uvarint #children, node..., uvarint #shared, chunk...
//	chunk  := record(Domain), uvarint #subrecords, record...
//	record := uvarint len, then delta-encoded terms as uvarints: the
//	          first as its uint32 bit pattern, subsequent gaps ≥ 1
//	          (dataset.EncodeRecord)
const binaryMagic = "DSA1"

// WriteBinary writes the publication in the compact binary format. It is the
// monolithic composition of WriteBinaryHeader and BinaryClusterWriter, so a
// publication assembled cluster by cluster is byte-identical to this path.
func WriteBinary(w io.Writer, a *Anonymized) error {
	bw := bufio.NewWriter(w)
	if err := WriteBinaryHeader(bw, a.K, a.M, len(a.Clusters)); err != nil {
		return err
	}
	cw := NewBinaryClusterWriter(bw)
	for _, n := range a.Clusters {
		if err := cw.Append(n); err != nil {
			return err
		}
	}
	if err := cw.Flush(); err != nil {
		return err
	}
	return bw.Flush()
}

func writeNode(put func(uint64) error, n *ClusterNode) error {
	if n.IsLeaf() {
		if err := put(0); err != nil {
			return err
		}
		cl := n.Simple
		if err := put(uint64(cl.Size)); err != nil {
			return err
		}
		if err := put(uint64(len(cl.RecordChunks))); err != nil {
			return err
		}
		for _, c := range cl.RecordChunks {
			if err := writeChunk(put, c); err != nil {
				return err
			}
		}
		return dataset.EncodeRecord(put, cl.TermChunk)
	}
	if err := put(1); err != nil {
		return err
	}
	if err := put(uint64(len(n.Children))); err != nil {
		return err
	}
	for _, child := range n.Children {
		if err := writeNode(put, child); err != nil {
			return err
		}
	}
	if err := put(uint64(len(n.SharedChunks))); err != nil {
		return err
	}
	for _, c := range n.SharedChunks {
		if err := writeChunk(put, c); err != nil {
			return err
		}
	}
	return nil
}

func writeChunk(put func(uint64) error, c Chunk) error {
	if err := dataset.EncodeRecord(put, c.Domain); err != nil {
		return err
	}
	if err := put(uint64(len(c.Subrecords))); err != nil {
		return err
	}
	for _, sr := range c.Subrecords {
		if err := dataset.EncodeRecord(put, sr); err != nil {
			return err
		}
	}
	return nil
}

// ReadBinary parses a publication written by WriteBinary.
func ReadBinary(r io.Reader) (*Anonymized, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: binary header: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("core: bad magic %q", magic)
	}
	get := func() (uint64, error) { return binary.ReadUvarint(br) }
	k, err := get()
	if err != nil {
		return nil, err
	}
	m, err := get()
	if err != nil {
		return nil, err
	}
	if k < 2 || m < 1 || k > 1<<20 || m > 64 {
		return nil, fmt.Errorf("core: implausible parameters k=%d m=%d", k, m)
	}
	count, err := get()
	if err != nil {
		return nil, err
	}
	if count > 1<<28 {
		return nil, fmt.Errorf("core: implausible cluster count %d", count)
	}
	// Declared counts cap the pre-allocation only up to a grace size: a
	// crafted header must not make the decoder allocate gigabytes before a
	// single node has parsed.
	a := &Anonymized{K: int(k), M: int(m), Clusters: make([]*ClusterNode, 0, preallocCap(count))}
	for i := uint64(0); i < count; i++ {
		n, err := readNode(get, 0)
		if err != nil {
			return nil, fmt.Errorf("core: cluster %d: %w", i, err)
		}
		a.Clusters = append(a.Clusters, n)
	}
	return a, nil
}

// preallocCap bounds a declared element count to a pre-allocation the decoder
// is willing to make on faith; larger lists grow as elements actually parse.
func preallocCap(n uint64) uint64 {
	const grace = 4096
	return min(n, grace)
}

// maxNodeDepth bounds joint-cluster nesting while decoding. Published forests
// are shallow (a joint of j leaves nests j-1 deep at worst, and REFINE joins
// pairwise), so the bound is far above anything WriteBinary emits while
// keeping adversarial inputs from exhausting the stack.
const maxNodeDepth = 10000

func readNode(get func() (uint64, error), depth int) (*ClusterNode, error) {
	if depth > maxNodeDepth {
		return nil, fmt.Errorf("implausible node nesting depth %d", depth)
	}
	tag, err := get()
	if err != nil {
		return nil, err
	}
	switch tag {
	case 0:
		size, err := get()
		if err != nil {
			return nil, err
		}
		nChunks, err := get()
		if err != nil {
			return nil, err
		}
		if nChunks > 1<<20 {
			return nil, fmt.Errorf("implausible chunk count %d", nChunks)
		}
		cl := &Cluster{Size: int(size)}
		for i := uint64(0); i < nChunks; i++ {
			c, err := readChunk(get)
			if err != nil {
				return nil, err
			}
			cl.RecordChunks = append(cl.RecordChunks, c)
		}
		tc, err := readRecord(get)
		if err != nil {
			return nil, err
		}
		cl.TermChunk = tc
		return &ClusterNode{Simple: cl}, nil
	case 1:
		nChildren, err := get()
		if err != nil {
			return nil, err
		}
		if nChildren < 2 || nChildren > 1<<20 {
			return nil, fmt.Errorf("implausible child count %d", nChildren)
		}
		node := &ClusterNode{}
		for i := uint64(0); i < nChildren; i++ {
			child, err := readNode(get, depth+1)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, child)
		}
		nShared, err := get()
		if err != nil {
			return nil, err
		}
		if nShared > 1<<20 {
			return nil, fmt.Errorf("implausible shared count %d", nShared)
		}
		for i := uint64(0); i < nShared; i++ {
			c, err := readChunk(get)
			if err != nil {
				return nil, err
			}
			node.SharedChunks = append(node.SharedChunks, c)
		}
		return node, nil
	default:
		return nil, fmt.Errorf("unknown node tag %d", tag)
	}
}

func readChunk(get func() (uint64, error)) (Chunk, error) {
	dom, err := readRecord(get)
	if err != nil {
		return Chunk{}, err
	}
	n, err := get()
	if err != nil {
		return Chunk{}, err
	}
	if n > 1<<26 {
		return Chunk{}, fmt.Errorf("implausible subrecord count %d", n)
	}
	c := Chunk{Domain: dom, Subrecords: make([]dataset.Record, 0, preallocCap(n))}
	for i := uint64(0); i < n; i++ {
		sr, err := readRecord(get)
		if err != nil {
			return Chunk{}, err
		}
		c.Subrecords = append(c.Subrecords, sr)
	}
	return c, nil
}

func readRecord(get func() (uint64, error)) (dataset.Record, error) {
	n, err := get()
	if err != nil {
		return nil, err
	}
	if n > 1<<22 {
		return nil, fmt.Errorf("implausible record length %d", n)
	}
	if n == 0 {
		return dataset.Record{}, nil
	}
	return dataset.DecodeRecordTerms(get, n, make(dataset.Record, 0, preallocCap(n)))
}
