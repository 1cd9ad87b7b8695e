package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Chunked publication writers: the streaming engine anonymizes one shard at a
// time and appends each shard's published clusters as they become available,
// so the monolithic WriteBinary/WriteJSON entry points are split into a
// header, a per-cluster append and a trailer. WriteBinary and WriteJSON are
// implemented on top of these writers, so a chunked emission is
// byte-identical to the monolithic one by construction.

// BinaryClusterWriter appends clusters in the compact binary format.
type BinaryClusterWriter struct {
	bw  *bufio.Writer
	buf []byte // one node's encoding, reused
}

// NewBinaryClusterWriter returns a cluster writer over w. It writes nothing
// by itself: a complete publication is WriteBinaryHeader followed by the
// Append-ed cluster bodies (the header carries the cluster count, so callers
// assembling a publication incrementally stage the bodies first).
func NewBinaryClusterWriter(w io.Writer) *BinaryClusterWriter {
	return &BinaryClusterWriter{bw: bufio.NewWriter(w)}
}

// Append writes one top-level cluster node.
func (cw *BinaryClusterWriter) Append(n *ClusterNode) error {
	cw.buf = appendNode(cw.buf[:0], n)
	_, err := cw.bw.Write(cw.buf)
	return err
}

// Flush drains the writer's buffer.
func (cw *BinaryClusterWriter) Flush() error { return cw.bw.Flush() }

// WriteBinaryHeader writes the binary format's header: magic, parameters and
// the total cluster count that must follow.
func WriteBinaryHeader(w io.Writer, k, m, clusters int) error {
	head := []byte(binaryMagic)
	for _, v := range [...]uint64{uint64(k), uint64(m), uint64(clusters)} {
		head = binary.AppendUvarint(head, v)
	}
	_, err := w.Write(head)
	return err
}

// WriteJSONHeader writes the JSON envelope up to the cluster list: the
// object opener, the parameters and the "Clusters" key. It is the single
// source of the envelope prefix for every JSON emission path.
func WriteJSONHeader(w io.Writer, k, m int) error {
	_, err := fmt.Fprintf(w, "{\n  \"K\": %d,\n  \"M\": %d,\n  \"Clusters\": ", k, m)
	return err
}

// WriteJSONTrailer closes the envelope: the array and object close. A
// publication with no clusters serializes its cluster list as [] — the
// stable wire format external consumers iterate (jq '.Clusters[]', typed
// decoders that reject null for an array field), regardless of whether the
// in-memory pipeline's slice happened to be nil.
func WriteJSONTrailer(w io.Writer, clusters int) error {
	s := "\n  ]\n}\n"
	if clusters == 0 {
		s = "[]\n}\n"
	}
	_, err := io.WriteString(w, s)
	return err
}

// JSONClusterWriter appends clusters in the indented JSON format. The
// emission is byte-identical to WriteJSON: Close must be called after the
// last cluster to write the trailer.
type JSONClusterWriter struct {
	bw    *bufio.Writer
	count int
}

// NewJSONClusterWriter writes the JSON header for the given parameters and
// returns the writer for the cluster array.
func NewJSONClusterWriter(w io.Writer, k, m int) (*JSONClusterWriter, error) {
	jw := &JSONClusterWriter{bw: bufio.NewWriter(w)}
	if err := WriteJSONHeader(jw.bw, k, m); err != nil {
		return nil, err
	}
	return jw, nil
}

// MarshalClusterJSON renders one top-level cluster exactly as it appears as
// an element of WriteJSON's cluster array (sans separators): array elements
// sit two indent levels deep, and MarshalIndent's prefix reproduces the
// continuation lines exactly as json.Encoder nests them.
func MarshalClusterJSON(n *ClusterNode) ([]byte, error) {
	body, err := json.MarshalIndent(n, "    ", "  ")
	if err != nil {
		return nil, fmt.Errorf("core: encode cluster: %w", err)
	}
	return body, nil
}

// Append writes one top-level cluster node.
func (jw *JSONClusterWriter) Append(n *ClusterNode) error {
	body, err := MarshalClusterJSON(n)
	if err != nil {
		return err
	}
	if jw.count == 0 {
		if _, err := jw.bw.WriteString("[\n    "); err != nil {
			return err
		}
	} else if _, err := jw.bw.WriteString(",\n    "); err != nil {
		return err
	}
	jw.count++
	_, err = jw.bw.Write(body)
	return err
}

// Close writes the trailer and flushes.
func (jw *JSONClusterWriter) Close() error {
	if err := WriteJSONTrailer(jw.bw, jw.count); err != nil {
		return err
	}
	return jw.bw.Flush()
}
