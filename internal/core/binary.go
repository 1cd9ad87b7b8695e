package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"

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
//	          (dataset.AppendRecord)
//
// One decoder reads it: DecodeBinary, over a byte slice (a snapshot file's
// mapped forest section, uncopied). ReadBinary reads its whole input into
// memory first and hands it to DecodeBinary.
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

// appendNode appends the encoding of one cluster node to dst.
func appendNode(dst []byte, n *ClusterNode) []byte {
	if n.IsLeaf() {
		cl := n.Simple
		dst = binary.AppendUvarint(dst, 0)
		dst = binary.AppendUvarint(dst, uint64(cl.Size))
		dst = binary.AppendUvarint(dst, uint64(len(cl.RecordChunks)))
		for _, c := range cl.RecordChunks {
			dst = appendChunk(dst, c)
		}
		return dataset.AppendRecord(dst, cl.TermChunk)
	}
	dst = binary.AppendUvarint(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(len(n.Children)))
	for _, child := range n.Children {
		dst = appendNode(dst, child)
	}
	dst = binary.AppendUvarint(dst, uint64(len(n.SharedChunks)))
	for _, c := range n.SharedChunks {
		dst = appendChunk(dst, c)
	}
	return dst
}

// appendChunk appends the encoding of one chunk to dst.
func appendChunk(dst []byte, c Chunk) []byte {
	dst = dataset.AppendRecord(dst, c.Domain)
	dst = binary.AppendUvarint(dst, uint64(len(c.Subrecords)))
	for _, sr := range c.Subrecords {
		dst = dataset.AppendRecord(dst, sr)
	}
	return dst
}

// ReadBinary parses a publication written by WriteBinary. It reads all of r
// before it decodes anything, then decodes with DecodeBinary.
func ReadBinary(r io.Reader) (*Anonymized, error) {
	b, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: binary: %w", err)
	}
	return DecodeBinary(b)
}

// readAll reads r to its end. A regular file (a reader with Stat) is read, as
// os.ReadFile does, into one buffer sized from its length, with a byte to
// spare for the read that meets the end; any other reader grows its buffer
// step by step through io.ReadAll.
func readAll(r io.Reader) ([]byte, error) {
	f, ok := r.(interface{ Stat() (fs.FileInfo, error) })
	if !ok {
		return io.ReadAll(r)
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() || int64(int(fi.Size())) != fi.Size() {
		return io.ReadAll(r)
	}
	b := make([]byte, 0, int(fi.Size())+1)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // the file grew since Stat
		}
	}
}

// Decoding limits. Each caps a count read from the input before the elements
// it declares have parsed, so an error names an implausible count early;
// none of them sizes an allocation (DecodeBinary allocates only after the
// whole forest has parsed).
const (
	// maxClusters caps the publication's top-level node count.
	maxClusters = 1 << 28
	// maxChunkList caps a leaf's record chunks, a joint's children and a
	// joint's shared chunks.
	maxChunkList = 1 << 20
	// maxSubrecords caps a chunk's subrecord count.
	maxSubrecords = 1 << 26
	// maxRecordLen caps a record's term count.
	maxRecordLen = 1 << 22
	// maxNodeDepth bounds joint-cluster nesting. Published forests are
	// shallow (a joint of j leaves nests j-1 deep at worst, and REFINE joins
	// pairwise), so the bound is far above anything WriteBinary emits while
	// keeping adversarial inputs from exhausting the stack.
	maxNodeDepth = 10000
)

// DecodeBinary parses a publication written by WriteBinary from b. It runs
// in two passes. The first walks the encoding with every check of the format
// and counts its nodes, leaves, child pointers, chunks, subrecords and terms;
// the second decodes into one slab of each, every list a full slice
// expression of its slab (capacity = length), so appending to a decoded
// list reallocates it rather than overwrite its neighbour.
//
// Allocation: every slab is sized by elements the first pass parsed, and the
// smallest encoding of each element decodes to at most 30 bytes per byte (a
// 4-byte leaf to a 56-byte node, a 56-byte cluster and an 8-byte pointer; a
// 2-byte chunk to 48 bytes; a 1-byte subrecord to 24 and a 1-byte term to
// 4), so the slabs hold at most 30 bytes per input byte, whatever counts a
// header declares. An input the first pass rejects allocates only its error.
//
// Retention: the decoder only reads b, which may be a read-only mapping, and
// the result does not alias it (terms are decoded into a slab of their own);
// but every node, chunk and record shares its slab with the rest of the
// forest, so any one of them kept reachable keeps all of the forest's memory
// alive.
func DecodeBinary(b []byte) (*Anonymized, error) {
	if len(b) < len(binaryMagic) {
		return nil, fmt.Errorf("core: binary header: %w", io.ErrUnexpectedEOF)
	}
	if string(b[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("core: bad magic %q", b[:len(binaryMagic)])
	}
	d := binaryDecoder{buf: b, off: len(binaryMagic)}
	k, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("core: binary header: %w", err)
	}
	m, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("core: binary header: %w", err)
	}
	if k < 2 || m < 1 || k > 1<<20 || m > 64 {
		return nil, fmt.Errorf("core: implausible parameters k=%d m=%d", k, m)
	}
	count, err := d.count(maxClusters, "cluster count")
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	start := d.off
	for i := range count {
		if err := d.scanNode(0); err != nil {
			return nil, fmt.Errorf("core: cluster %d: %w", i, err)
		}
	}
	end := d.off
	d.off = start
	clusters, err := d.fill(count, end)
	if err != nil {
		return nil, err
	}
	return &Anonymized{K: int(k), M: int(m), Clusters: clusters}, nil
}

// binaryDecoder walks one encoded forest. Pass 1 (scan…) checks it and
// counts its elements into n; pass 2 (fill…) takes its elements off the
// front of slabs sized by those counts.
type binaryDecoder struct {
	buf []byte
	off int
	n   struct{ nodes, leaves, ptrs, chunks, records, terms uint64 }

	nodes    []ClusterNode
	clusters []Cluster
	ptrs     []*ClusterNode
	chunks   []Chunk
	records  []dataset.Record
	terms    dataset.Record
}

// fill is pass 2: it decodes the count top-level nodes at d.off into slabs
// sized by pass 1's counts, and checks that it used them up and stopped
// where pass 1 did, at end.
func (d *binaryDecoder) fill(count uint64, end int) ([]*ClusterNode, error) {
	d.nodes = make([]ClusterNode, d.n.nodes)
	d.clusters = make([]Cluster, d.n.leaves)
	d.ptrs = make([]*ClusterNode, count+d.n.ptrs)
	d.chunks = make([]Chunk, d.n.chunks)
	d.records = make([]dataset.Record, d.n.records)
	d.terms = make(dataset.Record, d.n.terms)
	roots := d.ptrs[:count:count]
	d.ptrs = d.ptrs[count:]
	for i := range roots {
		var err error
		if roots[i], err = d.fillNode(0); err != nil {
			return nil, fmt.Errorf("core: cluster %d: %w", i, err)
		}
	}
	if d.off != end || len(d.nodes)+len(d.clusters)+len(d.ptrs)+len(d.chunks)+len(d.records)+len(d.terms) != 0 {
		return nil, errPassesDisagree
	}
	return roots, nil
}

// errPassesDisagree reports bytes that changed between the two passes (a
// mapped file written in place): pass 2 met more elements than pass 1
// counted, or fewer.
var errPassesDisagree = errors.New("core: binary forest changed while it was decoded")

// take splits the first n elements off *slab, as a list whose capacity is its
// length, or reports that pass 1 counted fewer.
func take[S ~[]T, T any](slab *S, n uint64) (S, error) {
	s := *slab
	if n > uint64(len(s)) {
		return nil, errPassesDisagree
	}
	*slab = s[n:]
	return s[:n:n], nil
}

// uvarint reads one varint, a one-byte one without binary.Uvarint's loop.
func (d *binaryDecoder) uvarint() (uint64, error) {
	if i := d.off; i < len(d.buf) && d.buf[i] < 0x80 {
		d.off = i + 1
		return uint64(d.buf[i]), nil
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	switch {
	case n == 0:
		return 0, io.ErrUnexpectedEOF
	case n < 0:
		return 0, errors.New("varint overflows 64 bits")
	}
	d.off += n
	return v, nil
}

// count reads an element count or a record length and checks it against
// limit. Nearly every record's length is one byte, and every limit exceeds
// a one-byte value, so that case makes no call and no check.
func (d *binaryDecoder) count(limit uint64, what string) (uint64, error) {
	if i := d.off; i < len(d.buf) && d.buf[i] < 0x80 {
		d.off = i + 1
		return uint64(d.buf[i]), nil
	}
	n, err := d.uvarint()
	if err == nil && n > limit {
		err = fmt.Errorf("implausible %s %d", what, n)
	}
	return n, err
}

// children reads a joint's child count, which is at least two.
func (d *binaryDecoder) children() (uint64, error) {
	n, err := d.count(maxChunkList, "child count")
	if err == nil && n < 2 {
		err = fmt.Errorf("implausible child count %d", n)
	}
	return n, err
}

// tag reads a node tag: 0 for a leaf, 1 for a joint.
func (d *binaryDecoder) tag(depth int) (bool, error) {
	if depth > maxNodeDepth {
		return false, fmt.Errorf("implausible node nesting depth %d", depth)
	}
	t, err := d.uvarint()
	if err != nil {
		return false, err
	}
	if t > 1 {
		return false, fmt.Errorf("unknown node tag %d", t)
	}
	return t == 0, nil
}

func (d *binaryDecoder) scanNode(depth int) error {
	leaf, err := d.tag(depth)
	if err != nil {
		return err
	}
	d.n.nodes++
	if leaf {
		d.n.leaves++
		if _, err := d.uvarint(); err != nil { // size
			return err
		}
		if err := d.scanChunks(); err != nil {
			return err
		}
		return d.scanRecord()
	}
	nChildren, err := d.children()
	if err != nil {
		return err
	}
	d.n.ptrs += nChildren
	for range nChildren {
		if err := d.scanNode(depth + 1); err != nil {
			return err
		}
	}
	return d.scanChunks()
}

// scanChunks scans a counted chunk list: a leaf's record chunks or a joint's
// shared chunks.
func (d *binaryDecoder) scanChunks() error {
	n, err := d.count(maxChunkList, "chunk count")
	if err != nil {
		return err
	}
	d.n.chunks += n
	for range n {
		if err := d.scanRecord(); err != nil { // domain
			return err
		}
		subs, err := d.count(maxSubrecords, "subrecord count")
		if err != nil {
			return err
		}
		d.n.records += subs
		for range subs {
			if err := d.scanRecord(); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanRecord counts a record's terms and skips their varints by counting
// terminator bytes; pass 2 checks the values.
func (d *binaryDecoder) scanRecord() error {
	n, err := d.count(maxRecordLen, "record length")
	if err != nil {
		return err
	}
	d.n.terms += n
	i := d.off
	for left := n; left > 0; i++ {
		if i == len(d.buf) {
			return fmt.Errorf("record term %d: %w", n-left, io.ErrUnexpectedEOF)
		}
		if d.buf[i] < 0x80 {
			left--
		}
	}
	d.off = i
	return nil
}

func (d *binaryDecoder) fillNode(depth int) (*ClusterNode, error) {
	leaf, err := d.tag(depth)
	if err != nil {
		return nil, err
	}
	nodes, err := take(&d.nodes, 1)
	if err != nil {
		return nil, err
	}
	node := &nodes[0]
	if leaf {
		cls, err := take(&d.clusters, 1)
		if err != nil {
			return nil, err
		}
		cl := &cls[0]
		size, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		cl.Size = int(size)
		if cl.RecordChunks, err = d.fillChunks(); err != nil {
			return nil, err
		}
		if cl.TermChunk, err = d.fillRecord(); err != nil {
			return nil, err
		}
		node.Simple = cl
		return node, nil
	}
	nChildren, err := d.children()
	if err != nil {
		return nil, err
	}
	if node.Children, err = take(&d.ptrs, nChildren); err != nil {
		return nil, err
	}
	for i := range node.Children {
		if node.Children[i], err = d.fillNode(depth + 1); err != nil {
			return nil, err
		}
	}
	if node.SharedChunks, err = d.fillChunks(); err != nil {
		return nil, err
	}
	return node, nil
}

// fillChunks decodes a counted chunk list. The list is never nil, as the
// pipeline builds it, so a decoded publication marshals like the encoded one
// even where a list is empty.
func (d *binaryDecoder) fillChunks() ([]Chunk, error) {
	n, err := d.count(maxChunkList, "chunk count")
	if err != nil {
		return nil, err
	}
	chunks, err := take(&d.chunks, n)
	if err != nil {
		return nil, err
	}
	for i := range chunks {
		c := &chunks[i]
		if c.Domain, err = d.fillRecord(); err != nil {
			return nil, err
		}
		subs, err := d.count(maxSubrecords, "subrecord count")
		if err != nil {
			return nil, err
		}
		if c.Subrecords, err = take(&d.records, subs); err != nil {
			return nil, err
		}
		for j := range c.Subrecords {
			if c.Subrecords[j], err = d.fillRecord(); err != nil {
				return nil, err
			}
		}
	}
	return chunks, nil
}

func (d *binaryDecoder) fillRecord() (dataset.Record, error) {
	n, err := d.count(maxRecordLen, "record length")
	if err != nil {
		return nil, err
	}
	r, err := take(&d.terms, n)
	if err != nil {
		return nil, err
	}
	used, err := dataset.FillRecordTerms(r, d.buf[d.off:])
	if err != nil {
		return nil, err
	}
	d.off += used
	return r, nil
}
