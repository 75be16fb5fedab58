package core

import (
	"fmt"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/pipeline"
	"github.com/graphsd/graphsd/internal/storage"
)

// blockSource delivers one pass's sub-blocks to its consumer. Every engine
// pass (FCIU-1, FCIU-2, full-single, SCIU, async-streamed) builds its cell
// plan — the non-empty cells it expects to read, in exactly the order it
// will consume them — and hands it to a blockSource together with the
// fetch function that loads one cell. The source owns the I/O step the
// passes share:
//
//   - it starts a prefetch pipeline over the plan when prefetching is
//     enabled and the plan is long enough to overlap anything;
//   - get(i, j) returns the plan's next cell from the pipeline, and any
//     unplanned cell (an evicted buffer resident, a dead-row cell the
//     cross-iteration scatter still needs, an empty cell) from a plain
//     synchronous fetch;
//   - the first transient fault on a prefetched cell degrades the rest of
//     the plan to synchronous fetches, which carry the device's own retry
//     policy, instead of aborting the run;
//   - close shuts the pipeline down and folds its stats into the run.
//
// Which cells a pass plans, and which it skips as dead, stays with the
// pass: those rules differ per pass.
type blockSource[T any] struct {
	e        *Engine
	fetch    func(pipeline.Request) (T, error)
	plan     []pipeline.Request
	pf       *pipeline.Prefetcher[T]
	next     int
	degraded bool
}

// newBlockSource starts a source over plan. fetch must be safe on pipeline
// worker goroutines.
func newBlockSource[T any](e *Engine, plan []pipeline.Request, fetch func(pipeline.Request) (T, error)) *blockSource[T] {
	s := &blockSource[T]{e: e, fetch: fetch, plan: plan}
	if e.opts.prefetchEnabled() && len(plan) >= 2 {
		s.pf = pipeline.New(plan, fetch, e.opts.prefetchOptions())
	}
	return s
}

// get returns sub-block (i, j). A cell that is not the plan's next one is
// fetched synchronously and is not a fallback. A planned cell comes from
// the pipeline until the pass degrades; from the degrading cell onward,
// each planned cell is fetched synchronously and counted in
// Stats.Fallbacks exactly once — the only place that counter moves.
// Permanent fetch errors and cancellation are returned as-is.
func (s *blockSource[T]) get(i, j int) (T, error) {
	if s.next >= len(s.plan) || s.plan[s.next].I != i || s.plan[s.next].J != j {
		return s.fetch(pipeline.Request{I: i, J: j})
	}
	req := s.plan[s.next]
	s.next++
	if s.pf != nil && !s.degraded {
		_, v, err := s.pf.NextCtx(s.e.ctx)
		if err == nil || !storage.IsTransient(err) {
			return v, err
		}
		s.degraded = true
	}
	if s.degraded {
		s.e.plStats.Fallbacks++
	}
	return s.fetch(req)
}

// close cancels any in-flight fetches and folds the pipeline's outcomes
// into the run totals.
func (s *blockSource[T]) close() {
	if s.pf != nil {
		s.pf.Close()
		s.e.plStats = s.e.plStats.Add(s.pf.Stats())
	}
}

// loadBlock loads the full decoded sub-block (r.I, r.J): the fetch function
// of every full-block pass, on pipeline workers and synchronously alike.
// The raw read buffer is pooled; the decoded slice is freshly allocated
// because consumers may retain it. With a shared cache configured the load
// routes through it, so concurrent jobs deduplicate device reads of the
// same block; the returned slice may then be shared with other jobs and
// must not be mutated (the engine only reads edges). An empty cell returns
// before the cache is consulted: it costs no I/O, so it must neither count
// a shared miss nor occupy an entry.
func (e *Engine) loadBlock(r pipeline.Request) ([]graph.Edge, error) {
	i, j := r.I, r.J
	if e.layout.Meta.SubBlockEdges(i, j) == 0 {
		return nil, nil
	}
	read := func() ([]graph.Edge, int64, error) {
		bufp := e.ioBufs.Get().(*[]byte)
		edges, buf, err := e.layout.LoadSubBlockInto(i, j, nil, *bufp)
		*bufp = buf
		e.ioBufs.Put(bufp)
		return edges, e.layout.Meta.SubBlockBytes(i, j), err
	}
	sc := e.opts.SharedBlocks
	if sc == nil {
		edges, _, err := read()
		return edges, err
	}
	if sc.Compressed() {
		return e.loadBlockCompressed(sc, i, j)
	}
	edges, hit, err := sc.GetOrLoad(buffer.Key{I: i, J: j, Gen: e.layout.BlockVersion(i, j)}, read)
	if err != nil {
		return nil, err
	}
	if hit {
		e.sharedHits.Add(1)
	} else {
		e.sharedMisses.Add(1)
	}
	return edges, nil
}

// selectiveBlock is the selectively-loaded content of one sub-block: the
// chosen vertices' edge runs concatenated in ascending vertex order, with
// per-vertex boundaries (SCIU's cross-iteration cache keys on them).
type selectiveBlock struct {
	edges []graph.Edge
	runs  []selectiveRun
}

// selectiveRun records that edges[prev.end:end] of a selectiveBlock belong
// to vertex v, where prev is the preceding run (or 0 for the first).
type selectiveRun struct {
	v   graph.VertexID
	end int
}

// loadSelective reads, through the vertex index idx of sub-block (i, j),
// the edges of every vertex of set in source interval i — SCIU's on-demand
// load (set = the active frontier) and the async selective path's (set =
// the frozen row frontier). Runs of consecutive vertices become sequential
// reads. Safe on pipeline worker goroutines as long as idx and set are not
// mutated meanwhile; each call owns its reader, so the sequential/random
// classification of AutoReadAt stays per sub-block.
func (e *Engine) loadSelective(i, j int, idx *partition.Index, set *bitset.ActiveSet) (selectiveBlock, error) {
	var blk selectiveBlock
	r, err := e.layout.OpenSubBlock(i, j)
	if err != nil {
		return blk, err
	}
	bufp := e.ioBufs.Get().(*[]byte)
	lo, hi := e.layout.Meta.Interval(i)
	var loopErr error
	set.ForEachRange(lo, hi, func(v int) bool {
		var edges []graph.Edge
		edges, *bufp, loopErr = e.layout.ReadVertexEdges(r, idx, i, graph.VertexID(v), *bufp)
		if loopErr != nil {
			return false
		}
		if len(edges) > 0 {
			blk.edges = append(blk.edges, edges...)
			blk.runs = append(blk.runs, selectiveRun{v: graph.VertexID(v), end: len(blk.edges)})
		}
		return true
	})
	e.ioBufs.Put(bufp)
	var closeErr error
	if r != nil { // nil reader: the block lives entirely in the overlay
		closeErr = r.Close()
	}
	if loopErr != nil {
		return blk, fmt.Errorf("core: selective load interval %d sub-block %d: %w", i, j, loopErr)
	}
	return blk, closeErr
}
