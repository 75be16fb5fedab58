package core_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/graph"
)

// TestScatterSerialMatchesPerEdge checks the serial scatter kernel, which
// looks a source up once per run of equal sources, against a plain
// per-edge loop. The edge lists interleave sources (sorted runs, a
// shuffled copy, single-edge runs) and mix active with inactive ones; the
// accumulator bits, the touched set and its count must all be equal.
func TestScatterSerialMatchesPerEdge(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, n)
	degrees := make([]uint32, n)
	filter := bitset.NewActiveSet(n)
	for v := 0; v < n; v++ {
		vals[v] = rng.Float64() * 10
		if v%17 == 0 {
			vals[v] = math.Inf(1) // unreached SSSP sources
		}
		degrees[v] = uint32(rng.Intn(5)) // zero degrees included
		if rng.Intn(3) > 0 {
			filter.Activate(v)
		}
	}

	var sorted []graph.Edge
	for src := 0; src < n; src += 1 + rng.Intn(3) {
		for k := rng.Intn(6); k > 0; k-- {
			sorted = append(sorted, graph.Edge{
				Src:    graph.VertexID(src),
				Dst:    graph.VertexID(rng.Intn(n)),
				Weight: float32(rng.Intn(100)) / 8,
			})
		}
	}
	shuffled := append([]graph.Edge(nil), sorted...)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	alternating := []graph.Edge{
		{Src: 3, Dst: 1, Weight: 1}, {Src: 4, Dst: 1, Weight: 2}, {Src: 3, Dst: 2, Weight: 3},
		{Src: 3, Dst: 2, Weight: 4}, {Src: 4, Dst: 3, Weight: 5}, {Src: 0, Dst: 3, Weight: 6},
	}

	programs := map[string]core.Program{
		"pagerank": &algorithms.PageRank{Iterations: 5},
		"sssp":     &algorithms.SSSP{Source: 0},
	}
	lists := map[string][]graph.Edge{"sorted": sorted, "shuffled": shuffled, "alternating": alternating}
	for pname, prog := range programs {
		for lname, edges := range lists {
			// Start from non-identity accumulators so Merge is exercised
			// against prior contributions, and from a pre-touched vertex
			// so the count covers already-set bits.
			seed := make([]float64, n)
			for v := range seed {
				seed[v] = prog.Identity()
				if v%5 == 0 {
					seed[v] = float64(v) / 7
				}
			}
			want, got := append([]float64(nil), seed...), append([]float64(nil), seed...)
			wantTouched, gotTouched := bitset.NewActiveSet(n), bitset.NewActiveSet(n)
			wantTouched.Activate(1)
			gotTouched.Activate(1)

			for _, ed := range edges {
				if !filter.Contains(int(ed.Src)) {
					continue
				}
				want[ed.Dst] = prog.Merge(want[ed.Dst], prog.Gather(vals[ed.Src], ed, degrees[ed.Src]))
				wantTouched.Activate(int(ed.Dst))
			}
			core.ScatterSerial(prog, degrees, edges, vals, filter, got, gotTouched)

			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("%s/%s: acc[%d] = %v, want %v", pname, lname, v, got[v], want[v])
				}
				if gotTouched.Contains(v) != wantTouched.Contains(v) {
					t.Fatalf("%s/%s: touched[%d] = %v, want %v", pname, lname, v, gotTouched.Contains(v), wantTouched.Contains(v))
				}
			}
			if gotTouched.Count() != wantTouched.Count() {
				t.Fatalf("%s/%s: touched count %d, want %d", pname, lname, gotTouched.Count(), wantTouched.Count())
			}
		}
	}
}
