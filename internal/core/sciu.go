package core

import (
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/pipeline"
)

// runSCIU executes one iteration under the selective cross-iteration
// update model (paper Algorithm 2). Under the on-demand I/O model it loads
// only the edges of active vertices — located through the per-sub-block
// vertex indexes, so runs of consecutive active vertices become sequential
// reads — applies the user update, and then performs cross-iteration value
// computation: every vertex that was (a) re-activated by this iteration
// and (b) already had its edges loaded scatters its next-iteration
// contribution immediately into the staged accumulator, and is removed
// from the next frontier so its edges are not read again.
//
// Selective loads run ahead of the scatter work on the I/O pipeline; each
// request's byte size is the sub-block's active-run total, so the window
// budget meters what is actually read.
func (e *Engine) runSCIU() error {
	// Modelled per-iteration I/O: the index consultation and the vertex
	// value array read/write-back (the 2|V|·N/B_sr + |V|·N/B_sw terms of
	// the paper's C_r).
	e.chargeIndexAccess()
	if err := e.readValues(); err != nil {
		return err
	}

	cross := !e.opts.DisableCrossIteration
	if cross {
		e.sciuCache = make(map[graph.VertexID][]graph.Edge)
	}
	recBytes := int64(e.layout.Meta.EdgeRecordBytes())

	// Build the selective-load sequence, preloading every touched vertex
	// index so the pipeline's fetch workers see a read-only cache. Under
	// SEM the dead-row check consults the block-activity bitmap (built once
	// per pass) instead of recounting the frontier per row; the skip
	// semantics are identical, so SCIU traffic is unchanged either way.
	e.semBegin()
	var reqs []pipeline.Request
	for i := 0; i < e.p; i++ {
		lo, hi := e.layout.Meta.Interval(i)
		if e.sem != nil {
			if !e.sem.rowLive(i) {
				continue
			}
		} else if e.active.CountRange(lo, hi) == 0 {
			continue
		}
		for j := 0; j < e.p; j++ {
			if e.layout.Meta.SubBlockEdges(i, j) == 0 {
				continue
			}
			idx, err := e.index(i, j)
			if err != nil {
				return err
			}
			var n int64
			e.active.ForEachRange(lo, hi, func(v int) bool {
				n += idx.Rec[v-lo+1] - idx.Rec[v-lo]
				return true
			})
			// Bytes meters the prefetch window: decoded size, like the
			// FCIU requests, since the window bounds memory residency.
			reqs = append(reqs, pipeline.Request{I: i, J: j, Bytes: n * recBytes})
		}
	}
	// The fetch runs on pipeline workers: every touched vertex index was
	// preloaded above (indexCache is read-only from here on), and the
	// active set is not mutated until the apply phase.
	src := newBlockSource(e, reqs, func(r pipeline.Request) (selectiveBlock, error) {
		return e.loadSelective(r.I, r.J, e.indexCache[buffer.Key{I: r.I, J: r.J}], e.active)
	})
	defer src.close()

	// Scatter: sub-block by sub-block in plan order. Cache bookkeeping
	// stays on the consumer.
	for _, req := range reqs {
		if err := e.checkCtx(); err != nil {
			return err
		}
		blk, err := src.get(req.I, req.J)
		if err != nil {
			return err
		}
		if cross {
			start := 0
			for _, run := range blk.runs {
				e.sciuCache[run.v] = append(e.sciuCache[run.v], blk.edges[start:run.end]...)
				start = run.end
			}
		}
		jLo, jHi := e.layout.Meta.Interval(req.J)
		e.scatter(blk.edges, e.valPrev, e.active, e.acc, e.touched, jLo, jHi)
	}

	e.applyAll()

	if cross {
		// Cross-iteration value computation (Alg 2 lines 15–23): vertices
		// re-activated while their edges are memory-resident propagate
		// their just-computed value to iteration t+1 now.
		var reactivated []int
		e.newActive.ForEach(func(v int) bool {
			if e.active.Contains(v) {
				reactivated = append(reactivated, v)
			}
			return true
		})
		for _, v := range reactivated {
			edges := e.sciuCache[graph.VertexID(v)]
			if len(edges) == 0 {
				continue
			}
			e.scatter(edges, e.valCur, e.newActive, e.accNext, e.touchedNext, 0, e.n)
			e.prescattered.Activate(v)
		}
		e.sciuCache = nil
	}
	return e.writeValues()
}
