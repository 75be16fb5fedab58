package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzEdgeRecordRoundTrip checks that the fixed-width edge record codec is
// an exact inverse pair for any (src, dst, weight, weighted) input.
func FuzzEdgeRecordRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), float32(0), false)
	f.Add(uint32(1), uint32(2), float32(1.5), true)
	f.Add(^uint32(0), ^uint32(0), float32(-1), true)
	f.Add(uint32(1<<31), uint32(7), float32(3.25e-9), false)
	f.Fuzz(func(t *testing.T, src, dst uint32, w float32, weighted bool) {
		e := Edge{Src: VertexID(src), Dst: VertexID(dst)}
		if weighted {
			e.Weight = w
		}
		buf := EncodeEdge(nil, e, weighted)
		rec := EdgeBytes
		if weighted {
			rec += WeightBytes
		}
		if len(buf) != rec {
			t.Fatalf("encoded %d bytes, want %d", len(buf), rec)
		}
		got := DecodeEdge(buf, weighted)
		// NaN weights don't compare equal; compare the bit patterns instead.
		if got.Src != e.Src || got.Dst != e.Dst || floatBits(got.Weight) != floatBits(e.Weight) {
			t.Fatalf("round trip %+v -> %+v", e, got)
		}
	})
}

// FuzzDeltaBlockRoundTrip builds an edge slice from fuzzed bytes, encodes it
// with the delta block codec, and checks the decode reproduces it exactly —
// including unsorted and duplicate edges, which the codec must tolerate.
func FuzzDeltaBlockRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(0), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint32(100), uint32(300), true)
	f.Add(bytes.Repeat([]byte{0xff}, 40), uint32(1<<20), uint32(0), false)
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2, 9, 9, 9, 9}, uint32(0), uint32(7), true)
	f.Fuzz(func(t *testing.T, raw []byte, srcBase, dstBase uint32, weighted bool) {
		// Interpret the fuzz bytes as edge records relative to the bases so
		// most inputs land near the bases (realistic cells) while high bytes
		// still exercise far-out vertices.
		var edges []Edge
		for off := 0; off+8 <= len(raw) && len(edges) < 1<<12; off += 8 {
			s := uint64(srcBase) + uint64(raw[off]) | uint64(raw[off+1])<<8
			d := uint64(dstBase) + uint64(raw[off+2]) | uint64(raw[off+3])<<16
			if s > uint64(^uint32(0)) || d > uint64(^uint32(0)) {
				continue
			}
			e := Edge{Src: VertexID(s), Dst: VertexID(d)}
			if weighted {
				e.Weight = bitsToFloat(uint32(raw[off+4]) | uint32(raw[off+5])<<8 | uint32(raw[off+6])<<16 | uint32(raw[off+7])<<24)
			}
			edges = append(edges, e)
		}
		// Encoding requires every src >= srcBase; clamp the base down.
		base := VertexID(srcBase)
		for _, e := range edges {
			if e.Src < base {
				base = e.Src
			}
		}
		data := EncodeDeltaBlock(nil, edges, base, VertexID(dstBase), weighted)
		got, err := AppendDeltaBlock(nil, data, base, VertexID(dstBase), weighted)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if len(got) != len(edges) {
			t.Fatalf("decoded %d edges, want %d", len(got), len(edges))
		}
		for i := range edges {
			if got[i].Src != edges[i].Src || got[i].Dst != edges[i].Dst ||
				floatBits(got[i].Weight) != floatBits(edges[i].Weight) {
				t.Fatalf("edge %d: %+v != %+v", i, got[i], edges[i])
			}
		}
	})
}

// FuzzDeltaBlockDecode feeds arbitrary bytes to the delta block decoder: it
// may reject them, but must never panic, hang, or allocate unboundedly.
func FuzzDeltaBlockDecode(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(0), false)
	f.Add(EncodeDeltaBlock(nil, []Edge{{Src: 5, Dst: 9}, {Src: 5, Dst: 11}}, 0, 0, false), uint32(0), uint32(0), false)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, uint32(0), uint32(0), true)
	f.Fuzz(func(t *testing.T, data []byte, srcBase, dstBase uint32, weighted bool) {
		edges, err := AppendDeltaBlock(nil, data, VertexID(srcBase), VertexID(dstBase), weighted)
		if err != nil {
			return
		}
		// Accepted input must re-encode to a decodable block of equal length.
		again := EncodeDeltaBlock(nil, edges, minSrc(edges, VertexID(srcBase)), VertexID(dstBase), weighted)
		got, err := AppendDeltaBlock(nil, again, minSrc(edges, VertexID(srcBase)), VertexID(dstBase), weighted)
		if err != nil {
			t.Fatalf("re-encode not decodable: %v", err)
		}
		if len(got) != len(edges) {
			t.Fatalf("re-encode edge count %d, want %d", len(got), len(edges))
		}
	})
}

func minSrc(edges []Edge, base VertexID) VertexID {
	for _, e := range edges {
		if e.Src < base {
			base = e.Src
		}
	}
	return base
}

// FuzzDeltaRunMatchesReference is a differential test of the delta
// decoders: DecodeDeltaRun and AppendDeltaBlock must accept and reject
// exactly the inputs the plain binary.Varint reference decoders below
// accept and reject, and on accepted inputs produce identical edges and
// byte counts. The seeds sit on the edges the fast paths special-case:
// gaps at the 0x7f/0x80 one-byte boundary, 10-byte overlong varints,
// uint32 overflow of sources and destinations, and truncated runs.
func FuzzDeltaRunMatchesReference(f *testing.F) {
	boundary := []Edge{{Src: 2, Dst: 63}, {Src: 2, Dst: 127}, {Src: 2, Dst: 63}, {Src: 2, Dst: 0}, {Src: 2, Dst: 1 << 20}}
	f.Add(EncodeDeltaBlock(nil, boundary, 0, 0, false), uint32(0), uint32(0), false)
	f.Add(EncodeDeltaBlock(nil, boundary, 0, 0, true), uint32(0), uint32(0), true)
	f.Add(EncodeDeltaRun(nil, boundary, 0, 0), uint32(0), uint32(0), false)
	f.Add([]byte{0, 3, 0x7e, 0x7f, 0x80, 0x01}, uint32(100), uint32(100), false)
	// 10-byte varints: srcRel 2^64−1 (wraps a uint64 sum), an overlong zero
	// gap, and an 11-byte gap that binary.Varint rejects.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 0}, uint32(1), uint32(0), false)
	f.Add([]byte{0, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, uint32(0), uint32(0), false)
	f.Add([]byte{0, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, uint32(0), uint32(0), false)
	// uint32 overflow of the source and of a destination.
	f.Add([]byte{1, 1, 0}, ^uint32(0), uint32(0), false)
	f.Add([]byte{0, 1, 2}, uint32(0), ^uint32(0), false)
	f.Add([]byte{1, 0, 1, 1}, uint32(0), uint32(0), false)
	// Truncated runs: too few gaps, and a gap cut mid-varint.
	f.Add([]byte{3, 0, 3, 2, 2}, uint32(0), uint32(0), false)
	f.Add([]byte{1, 0, 1, 0x80}, uint32(0), uint32(0), false)
	f.Fuzz(func(t *testing.T, data []byte, srcBase, dstBase uint32, weighted bool) {
		sb, db := VertexID(srcBase), VertexID(dstBase)
		prefix := []Edge{{Src: 7, Dst: 8, Weight: 9}}

		want, wantN, wantOK := refDecodeRun(data, sb, db)
		got, gotN, err := DecodeDeltaRun(append([]Edge(nil), prefix...), data, sb, db)
		if (err == nil) != wantOK {
			t.Fatalf("run: DecodeDeltaRun err=%v, reference accepts=%v", err, wantOK)
		}
		if wantOK {
			if gotN != wantN {
				t.Fatalf("run: consumed %d bytes, reference %d", gotN, wantN)
			}
			requireEdges(t, "run", got, append(append([]Edge(nil), prefix...), want...))
		}

		want, wantOK = refDecodeBlock(data, sb, db, weighted)
		got, err = AppendDeltaBlock(append([]Edge(nil), prefix...), data, sb, db, weighted)
		if (err == nil) != wantOK {
			t.Fatalf("block: AppendDeltaBlock err=%v, reference accepts=%v", err, wantOK)
		}
		if wantOK {
			requireEdges(t, "block", got, append(append([]Edge(nil), prefix...), want...))
		}
	})
}

func requireEdges(t *testing.T, what string, got, want []Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Src != want[i].Src || got[i].Dst != want[i].Dst ||
			math.Float32bits(got[i].Weight) != math.Float32bits(want[i].Weight) {
			t.Fatalf("%s: edge %d = %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// refDecodeRun decodes one run with binary.Uvarint/Varint only, checking
// every source and destination against the uint32 range in arithmetic that
// cannot overflow.
func refDecodeRun(data []byte, srcBase, dstBase VertexID) ([]Edge, int, bool) {
	srcRel, k := binary.Uvarint(data)
	if k <= 0 || srcRel > math.MaxUint32 || uint64(srcBase)+srcRel > math.MaxUint32 {
		return nil, 0, false
	}
	off := k
	runLen, k := binary.Uvarint(data[off:])
	if k <= 0 {
		return nil, 0, false
	}
	off += k
	var edges []Edge
	dst := int64(dstBase)
	for i := uint64(0); i < runLen; i++ {
		gap, k := binary.Varint(data[off:])
		if k <= 0 || gap > math.MaxUint32 || gap < -math.MaxUint32 {
			return nil, 0, false
		}
		off += k
		dst += gap
		if dst < 0 || dst > math.MaxUint32 {
			return nil, 0, false
		}
		edges = append(edges, Edge{Src: srcBase + VertexID(srcRel), Dst: VertexID(dst)})
	}
	return edges, off, true
}

// refDecodeBlock decodes a whole block: count header, runs until the body
// is exhausted, then the weight column.
func refDecodeBlock(data []byte, srcBase, dstBase VertexID, weighted bool) ([]Edge, bool) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, false
	}
	body := data[k:]
	if weighted {
		if n > uint64(len(body))/WeightBytes {
			return nil, false
		}
		body = body[:len(body)-int(n)*WeightBytes]
	}
	var edges []Edge
	for len(body) > 0 {
		run, used, ok := refDecodeRun(body, srcBase, dstBase)
		if !ok {
			return nil, false
		}
		edges = append(edges, run...)
		body = body[used:]
	}
	if uint64(len(edges)) != n {
		return nil, false
	}
	if weighted {
		col := data[len(data)-int(n)*WeightBytes:]
		for i := range edges {
			edges[i].Weight = math.Float32frombits(binary.LittleEndian.Uint32(col[i*WeightBytes:]))
		}
	}
	return edges, true
}
