package main

import (
	"hash/fnv"
	"math/rand"

	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
)

// Input sizes. Every input below is a pure function of the run seed, so the
// program under test receives the same graphs, sources and mutation batches
// for the same seed and nothing else from the benchmark.
const (
	// batch-dense: R-MAT scale 17, edge factor 16 (~2.1 M edges).
	denseScale      = 17
	denseEdgeFactor = 16
	// batch-sparse: the road-sim chain; 6,000 vertices keeps BFS depth
	// (~757 levels) under the default 1,000-iteration bound.
	roadVertices = 6000
	// serve-mixed: R-MAT scale 14, edge factor 16.
	serveScale      = 14
	serveEdgeFactor = 16
	// gridP is the partition count of every layout (the P×P grid).
	gridP = 8
	// mutationBatch is the number of edge inserts per POST.
	mutationBatch = 64
	// sparseSources is how many traversal sources batch-sparse cycles
	// through; each is drawn from the first 1% of the vertices.
	sparseSources = 4
	// serveSources is how many BFS sources the serve-mixed job client
	// cycles through.
	serveSources = 8
)

// subSeed derives an independent seed for one named input stream, so that
// adding a stream never shifts the values another stream draws.
func subSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return seed ^ int64(h.Sum64()&(1<<62-1))
}

// rmatGraph is the Graph500 R-MAT graph of 2^scale vertices.
func rmatGraph(scale, edgeFactor int, seed int64) (*graph.Graph, error) {
	return gen.RMAT(scale, edgeFactor, gen.Graph500, subSeed(seed, "rmat"))
}

// roadGraph is a chain with a shortcut every eight vertices, the harness's
// high-diameter road-sim graph: a traversal frontier stays a few vertices
// wide for hundreds of iterations.
func roadGraph(n int) *graph.Graph {
	g := gen.Chain(n)
	for i := 0; i+8 < n; i += 8 {
		g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 8)})
	}
	return g
}

// weightedCopy returns g with seeded weights in [1, 16).
func weightedCopy(g *graph.Graph, seed int64) *graph.Graph {
	return gen.Weighted(g.Clone(), 16, subSeed(seed, "weights"))
}

// prefixSources draws k distinct sources from the first 1% of n vertices.
func prefixSources(seed int64, n, k int) []graph.VertexID {
	span := n / 100
	if span < k {
		span = k
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "sources")))
	perm := rng.Perm(span)
	out := make([]graph.VertexID, k)
	for i := range out {
		out[i] = graph.VertexID(perm[i])
	}
	return out
}

// activeSources draws k sources with at least one out-edge, so that no
// serving BFS job is a trivial single-vertex traversal.
func activeSources(g *graph.Graph, seed int64, k int) []graph.VertexID {
	deg := g.OutDegrees()
	rng := rand.New(rand.NewSource(subSeed(seed, "serve-sources")))
	out := make([]graph.VertexID, 0, k)
	for len(out) < k {
		v := rng.Intn(g.NumVertices)
		if deg[v] > 0 {
			out = append(out, graph.VertexID(v))
		}
	}
	return out
}

// mutationStream yields the writer's insert batches, which depend only on
// the seed.
type mutationStream struct {
	rng *rand.Rand
	n   int
}

func newMutationStream(seed int64, numVertices int) *mutationStream {
	return &mutationStream{rng: rand.New(rand.NewSource(subSeed(seed, "mutations"))), n: numVertices}
}

// next returns the writer's next batch of edge inserts.
func (m *mutationStream) next() []delta.Mutation {
	out := make([]delta.Mutation, mutationBatch)
	for i := range out {
		out[i] = delta.Mutation{
			Op:  delta.OpInsert,
			Src: graph.VertexID(m.rng.Intn(m.n)),
			Dst: graph.VertexID(m.rng.Intn(m.n)),
		}
	}
	return out
}
