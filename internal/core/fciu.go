package core

import (
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/pipeline"
)

// fciuMode selects which grid cells an FCIU/full pass will read from disk,
// which is exactly the pass's cell plan.
type fciuMode int

const (
	// fciuFirstCells: every cell, column-major.
	fciuFirstCells fciuMode = iota
	// fciuSecondCells: secondary cells (i > j) only.
	fciuSecondCells
	// fullCells: every cell. The priority buffer is not consulted in this
	// mode.
	fullCells
)

// fciuSource builds the cell plan of one FCIU or full pass and starts its
// block source. The plan is the non-empty cells in consumption order, minus
// secondary cells expected to hit the buffer, and — under SEM — cells of rows the activity bitmap proves
// dead, which never enqueue a read at all. (A dead-row cell that the
// cross-iteration phase turns out to need is an unplanned, synchronous
// get.) Residency is only sampled here — the pipeline's fetch workers never
// touch the buffer, so a mid-pass eviction costs an unplanned synchronous
// load rather than a data race.
func (e *Engine) fciuSource(mode fciuMode) *blockSource[[]graph.Edge] {
	resident := make(map[buffer.Key]bool)
	if mode != fullCells {
		for _, k := range e.buf.Keys() {
			resident[k] = true
		}
	}
	var plan []pipeline.Request
	for j := 0; j < e.p; j++ {
		iLo := 0
		if mode == fciuSecondCells {
			iLo = j + 1
		}
		for i := iLo; i < e.p; i++ {
			if e.layout.Meta.SubBlockEdges(i, j) == 0 {
				continue
			}
			if e.sem != nil && !e.sem.rowLive(i) {
				continue
			}
			if mode != fullCells && i > j && resident[buffer.Key{I: i, J: j}] {
				continue
			}
			plan = append(plan, pipeline.Request{I: i, J: j, Bytes: e.layout.Meta.SubBlockBytes(i, j)})
		}
	}
	return newBlockSource(e, plan, e.loadBlock)
}

// nextFCIUBlock fetches sub-block (i, j) for an FCIU pass from its block
// source. Secondary sub-blocks (i > j) consult the priority buffer first and
// are offered to it after a miss, with priority equal to their current
// active-edge count — the same contract as the synchronous path, so buffer
// hit/miss statistics are unchanged by pipelining.
func (e *Engine) nextFCIUBlock(src *blockSource[[]graph.Edge], i, j int) ([]graph.Edge, error) {
	if e.layout.Meta.SubBlockEdges(i, j) == 0 {
		return nil, nil
	}
	if i <= j {
		return src.get(i, j)
	}
	k := buffer.Key{I: i, J: j}
	if e.opts.SEM {
		// Compressed buffer tier: residents are delta payloads, decoded on
		// hit. Decode round-trips the edge order exactly, so the scatter
		// consumes the same sequence as an uncached load.
		if edges, payload, ok := e.buf.GetEntry(k); ok {
			if payload == nil {
				return edges, nil
			}
			decoded, err := e.decodePayload(i, j, payload)
			if err != nil {
				return nil, err
			}
			e.semCompHits.Add(1)
			return decoded, nil
		}
	} else if edges, ok := e.buf.Get(k); ok {
		return edges, nil
	}
	edges, err := src.get(i, j)
	if err != nil {
		return nil, err
	}
	priority := activeEdgeCount(edges, e.active)
	if e.opts.SEM {
		payload := e.encodePayload(i, j, edges)
		if e.buf.PutBytes(k, payload, e.layout.Meta.SubBlockBytes(i, j), priority) {
			e.semCompBytes.Add(int64(len(payload)))
			e.semDecBytes.Add(e.layout.Meta.SubBlockBytes(i, j))
		}
	} else {
		e.buf.Put(k, edges, e.layout.Meta.SubBlockBytes(i, j), priority)
	}
	return edges, nil
}

// runFCIUFirst executes the first half of a full cross-iteration update
// pass (paper Algorithm 3, lines 1–17): stream every sub-block in
// column-major order, updating iteration t, and exploit the dependency
// structure of the grid to compute iteration t+1 contributions in the same
// pass:
//
//   - sub-block (i, j) with i < j: interval i was applied before column j
//     is processed, so the sources' t-values are final — scatter t+1
//     contributions immediately after the t-scatter;
//   - the diagonal sub-block (j, j) is held in memory until column j is
//     applied, then scatters its t+1 contributions;
//   - sub-blocks with i > j ("secondary") cannot propagate in this pass
//     and are offered to the priority buffer for the second half.
//
// Sub-block reads run ahead of the scatter/apply work on the I/O pipeline.
// The driver then runs runFCIUSecond as the next iteration.
func (e *Engine) runFCIUFirst() error {
	if err := e.readValues(); err != nil {
		return err
	}
	e.semBegin()
	src := e.fciuSource(fciuFirstCells)
	defer src.close()

	for j := 0; j < e.p; j++ {
		lo, hi := e.layout.Meta.Interval(j)
		var diag []graph.Edge
		diagDeferred := false
		for i := 0; i < e.p; i++ {
			if err := e.checkCtx(); err != nil {
				return err
			}
			if e.sem != nil && !e.sem.rowLive(i) {
				// The t-scatter of every cell in this row is a guaranteed
				// no-op: the active filter excludes all of its edges. Only
				// the cross-iteration scatter can still need the cell.
				switch {
				case i > j:
					// Secondary cells scatter from the active filter only.
					e.semSkip(i, j)
					continue
				case i < j:
					// Interval i is already applied, so newActive∩interval(i)
					// is final: skip when it is empty, otherwise fall through
					// and load for the cross-iteration scatter alone.
					if riLo, riHi := e.layout.Meta.Interval(i); e.newActive.CountRange(riLo, riHi) == 0 {
						e.semSkip(i, j)
						continue
					}
				default:
					// Diagonal: newActive∩interval(j) is final only after
					// applyInterval(j); defer the load decision until then.
					diagDeferred = true
					continue
				}
			}
			edges, err := e.nextFCIUBlock(src, i, j)
			if err != nil {
				return err
			}
			if len(edges) == 0 {
				continue
			}
			// Current-iteration update (UserFunction over all edges whose
			// source is active).
			e.scatter(edges, e.valPrev, e.active, e.acc, e.touched, lo, hi)
			switch {
			case i < j:
				// CrossIterUpdate: sources already updated in this
				// iteration propagate their new value to iteration t+1.
				e.scatter(edges, e.valCur, e.newActive, e.accNext, e.touchedNext, lo, hi)
			case i == j:
				diag = edges
			}
		}
		e.applyInterval(j)
		if diag != nil {
			// Diagonal cross-iteration after interval j's own apply
			// (Alg 3 lines 13–16).
			e.scatter(diag, e.valCur, e.newActive, e.accNext, e.touchedNext, lo, hi)
		} else if diagDeferred {
			// Dead-row diagonal: now that interval j is applied its t+1
			// activations are final. Load only if there is something to
			// propagate; this rare load is an unplanned, synchronous get
			// (the cell was never enqueued on the pipeline).
			if e.newActive.CountRange(lo, hi) > 0 {
				edges, err := src.get(j, j)
				if err != nil {
					return err
				}
				e.scatter(edges, e.valCur, e.newActive, e.accNext, e.touchedNext, lo, hi)
			} else {
				e.semSkip(j, j)
			}
		}
	}

	// The paper updates each buffered secondary sub-block's priority after
	// the first iteration processes it; now that the full activation set
	// for t+1 is known, refresh every resident's priority. Large residents
	// are sampled rather than rescanned; compressed residents are estimated
	// from their row's active fraction instead of being decoded. Either
	// estimate is clamped to ≥1 while the block bitmap says the block is
	// live, so sampling can never demote a hot block to dead.
	for _, k := range e.buf.Keys() {
		edges, payload, ok := e.buf.PeekEntry(k)
		if !ok {
			continue
		}
		var est int64
		if payload != nil {
			est = e.payloadPriority(k, e.newActive)
		} else {
			est = clampedActiveEdgeEstimate(edges, e.newActive, &e.layout.Meta, k.I)
		}
		e.buf.UpdatePriority(k, est)
	}
	return e.writeValues()
}

// runFCIUSecond executes the second half of an FCIU pass (Algorithm 3,
// lines 18–26): iteration t+1 already holds the staged contributions from
// every sub-block with i <= j, so only the secondary sub-blocks (i > j)
// are read — from the buffer when resident — before each interval is
// applied.
func (e *Engine) runFCIUSecond() error {
	if err := e.readValues(); err != nil {
		return err
	}
	e.semBegin()
	src := e.fciuSource(fciuSecondCells)
	defer src.close()

	for j := 0; j < e.p; j++ {
		lo, hi := e.layout.Meta.Interval(j)
		for i := j + 1; i < e.p; i++ {
			if err := e.checkCtx(); err != nil {
				return err
			}
			if e.sem != nil && !e.sem.rowLive(i) {
				// Secondary cells scatter only from the active filter; a
				// dead row contributes nothing.
				e.semSkip(i, j)
				continue
			}
			edges, err := e.nextFCIUBlock(src, i, j)
			if err != nil {
				return err
			}
			e.scatter(edges, e.valPrev, e.active, e.acc, e.touched, lo, hi)
		}
		e.applyInterval(j)
	}
	return e.writeValues()
}

// runFullSingle executes one plain full-I/O iteration with no
// cross-iteration computation: stream every sub-block, scatter, apply per
// interval. Used when cross-iteration is disabled (ablation b1) and when a
// single iteration remains in the budget. Reads run ahead on the I/O
// pipeline; the priority buffer is not involved.
func (e *Engine) runFullSingle() error {
	if err := e.readValues(); err != nil {
		return err
	}
	e.semBegin()
	src := e.fciuSource(fullCells)
	defer src.close()

	for j := 0; j < e.p; j++ {
		lo, hi := e.layout.Meta.Interval(j)
		for i := 0; i < e.p; i++ {
			if err := e.checkCtx(); err != nil {
				return err
			}
			if e.sem != nil && !e.sem.rowLive(i) {
				// No cross-iteration work in this pass: a dead row's cells
				// are skipped outright.
				e.semSkip(i, j)
				continue
			}
			edges, err := src.get(i, j)
			if err != nil {
				return err
			}
			e.scatter(edges, e.valPrev, e.active, e.acc, e.touched, lo, hi)
		}
		e.applyInterval(j)
	}
	return e.writeValues()
}
