package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Delta codec for edge payloads ("delta" in partition manifests). Sub-blocks
// hold edges from one narrow (source, destination) interval pair, sorted by
// (src, dst) — exactly the layout where storing destination gaps as zigzag
// varints beats the fixed 8/12-byte record.
//
// Block payload layout:
//
//	uvarint  n        edge count
//	runs              per-source runs (see below)
//	weights           n × float32 LE, present only in weighted blocks
//
// Each run encodes the consecutive edges of one source vertex:
//
//	uvarint  srcRel   src − srcBase
//	uvarint  runLen   number of edges in the run (≥ 1)
//	runLen × varint   zigzag dst gaps; the first gap is taken from dstBase,
//	                  each following gap from the previous dst
//
// Runs are self-contained given (srcBase, dstBase) — no decoder state
// crosses a run boundary — so a per-vertex byte index over run starts gives
// the same selective-load capability as fixed-width records. Weights live in
// a trailing column so the varint section stays densely packed and a
// vertex's weights can be fetched by record offset.

// Codec identifies an edge payload encoding.
type Codec int

const (
	// CodecRaw is the fixed-width record encoding (EncodeEdge/DecodeEdges).
	CodecRaw Codec = iota
	// CodecDelta is the per-source-run zigzag-delta varint encoding above.
	CodecDelta
)

// String returns the manifest/flag spelling of the codec.
func (c Codec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecDelta:
		return "delta"
	default:
		return fmt.Sprintf("codec(%d)", int(c))
	}
}

// ParseCodec parses a codec name as spelled in manifests and CLI flags.
// The empty string means raw, so pre-codec manifests load unchanged.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "raw":
		return CodecRaw, nil
	case "delta":
		return CodecDelta, nil
	}
	return CodecRaw, fmt.Errorf("graph: unknown codec %q (want raw or delta)", s)
}

// EncodeDeltaRun appends one run to buf: the given edges must share a single
// source vertex (>= srcBase). Destinations may be in any order — unsorted
// input still round-trips, it just compresses worse.
func EncodeDeltaRun(buf []byte, edges []Edge, srcBase, dstBase VertexID) []byte {
	if len(edges) == 0 {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(edges[0].Src-srcBase))
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	prev := int64(dstBase)
	for _, e := range edges {
		d := int64(e.Dst)
		buf = binary.AppendVarint(buf, d-prev)
		prev = d
	}
	return buf
}

// DecodeDeltaRun decodes one run from the front of data, appending its edges
// to dst. It returns the extended slice and the number of bytes consumed.
// Weights are left zero; block-level decoders fill them from the weight
// column.
func DecodeDeltaRun(dst []Edge, data []byte, srcBase, dstBase VertexID) ([]Edge, int, error) {
	srcRel, k := binary.Uvarint(data)
	if k <= 0 {
		return dst, 0, fmt.Errorf("graph: delta run: bad source varint")
	}
	off := k
	// Compare before adding: a 10-byte srcRel would wrap the uint64 sum.
	if srcRel > math.MaxUint32-uint64(srcBase) {
		return dst, 0, fmt.Errorf("graph: delta run: source %d+%d overflows uint32", srcBase, srcRel)
	}
	src := uint64(srcBase) + srcRel
	runLen, k := binary.Uvarint(data[off:])
	if k <= 0 {
		return dst, 0, fmt.Errorf("graph: delta run: bad length varint")
	}
	off += k
	// Each gap takes at least one byte, so a valid runLen never exceeds the
	// remaining payload — reject early instead of allocating for it.
	if runLen > uint64(len(data)-off) {
		return dst, 0, fmt.Errorf("graph: delta run: length %d exceeds %d remaining bytes", runLen, len(data)-off)
	}
	prev := int64(dstBase)
	for i := uint64(0); i < runLen; i++ {
		var gap int64
		if off < len(data) && data[off] < 0x80 {
			// One-byte zig-zag gap, the common case in a sorted run.
			u := int64(data[off])
			gap = u>>1 ^ -(u & 1)
			off++
		} else {
			var k int
			gap, k = binary.Varint(data[off:])
			if k <= 0 {
				return dst, 0, fmt.Errorf("graph: delta run: bad gap varint at edge %d", i)
			}
			off += k
		}
		prev += gap
		if prev < 0 || prev > math.MaxUint32 {
			return dst, 0, fmt.Errorf("graph: delta run: destination %d out of uint32 range", prev)
		}
		dst = append(dst, Edge{Src: VertexID(src), Dst: VertexID(prev)})
	}
	return dst, off, nil
}

// AppendDeltaRuns decodes consecutive runs until data is exhausted,
// appending the edges to dst. Used for whole-block and per-vertex decodes
// where the byte range is known to cover whole runs.
func AppendDeltaRuns(dst []Edge, data []byte, srcBase, dstBase VertexID) ([]Edge, error) {
	for len(data) > 0 {
		var n int
		var err error
		dst, n, err = DecodeDeltaRun(dst, data, srcBase, dstBase)
		if err != nil {
			return dst, err
		}
		data = data[n:]
	}
	return dst, nil
}

// EncodeDeltaBlock appends the delta encoding of a whole block to buf:
// edge-count header, one run per maximal group of consecutive equal-source
// edges, then the weight column if weighted. Any edge order round-trips;
// src-sorted input yields one run per source and the best ratio.
func EncodeDeltaBlock(buf []byte, edges []Edge, srcBase, dstBase VertexID, weighted bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	for start := 0; start < len(edges); {
		end := start + 1
		for end < len(edges) && edges[end].Src == edges[start].Src {
			end++
		}
		buf = EncodeDeltaRun(buf, edges[start:end], srcBase, dstBase)
		start = end
	}
	if weighted {
		for _, e := range edges {
			buf = binary.LittleEndian.AppendUint32(buf, floatBits(e.Weight))
		}
	}
	return buf
}

// AppendDeltaBlock decodes a delta block produced by EncodeDeltaBlock,
// appending the edges to dst and returning the extended slice.
func AppendDeltaBlock(dst []Edge, data []byte, srcBase, dstBase VertexID, weighted bool) ([]Edge, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return dst, fmt.Errorf("graph: delta block: bad count varint")
	}
	if n > uint64(len(data)) {
		return dst, fmt.Errorf("graph: delta block: count %d exceeds %d payload bytes", n, len(data))
	}
	weightBytes := 0
	if weighted {
		weightBytes = int(n) * WeightBytes
		if weightBytes > len(data)-k {
			return dst, fmt.Errorf("graph: delta block: weight column truncated")
		}
	}
	// n is bounded by the payload length above, so a hostile header cannot
	// force a large allocation; a valid block then decodes without regrowing.
	dst = slices.Grow(dst, int(n))
	base := len(dst)
	body := data[k : len(data)-weightBytes]
	dst, err := AppendDeltaRuns(dst, body, srcBase, dstBase)
	if err != nil {
		return dst, err
	}
	if got := len(dst) - base; uint64(got) != n {
		return dst, fmt.Errorf("graph: delta block: decoded %d edges, header says %d", got, n)
	}
	if weighted {
		col := data[len(data)-weightBytes:]
		for i := range dst[base:] {
			dst[base+i].Weight = bitsToFloat(binary.LittleEndian.Uint32(col[i*WeightBytes:]))
		}
	}
	return dst, nil
}
