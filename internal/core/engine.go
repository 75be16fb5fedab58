package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/checkpoint"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/iosched"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/pipeline"
	"github.com/graphsd/graphsd/internal/storage"
	"github.com/graphsd/graphsd/internal/vertexstore"
)

// serialScatterThreshold is the edge count below which scatter runs
// single-threaded; goroutine fan-out costs more than it saves on tiny
// batches.
const serialScatterThreshold = 4096

// Engine executes a vertex program over a partitioned on-disk graph using
// GraphSD's state- and dependency-aware update strategy. Create one with
// NewEngine and call Run once; an Engine is single-use.
type Engine struct {
	layout *partition.Layout
	prog   Program
	opts   Options
	sched  *iosched.Scheduler
	buf    *buffer.Buffer

	// ctx cancels the run between sub-blocks; never nil once run starts.
	ctx context.Context

	// sharedHits/sharedMisses count this run's full-block loads served by /
	// missed in the cross-job shared cache (Options.SharedBlocks). Atomic:
	// pipeline fetch workers load concurrently.
	sharedHits, sharedMisses atomic.Int64

	n, p    int
	degrees []uint32

	// BSP state. valPrev holds iteration t-1 values (scatter source),
	// valCur iteration t values (apply target). acc/touched are the
	// current iteration's accumulators; accNext/touchedNext stage
	// cross-iteration contributions for t+1.
	valPrev, valCur []float64
	aux             []float64
	acc, accNext    []float64
	touched         *bitset.ActiveSet
	touchedNext     *bitset.ActiveSet
	active          *bitset.ActiveSet
	newActive       *bitset.ActiveSet
	prescattered    *bitset.ActiveSet

	// indexCache holds per-sub-block vertex indexes once loaded; the
	// structures are immutable so they are kept for the whole run.
	indexCache map[buffer.Key]*partition.Index

	// sciuCache holds the edges of this iteration's active vertices so the
	// cross-iteration phase can reuse them without re-reading (Alg 2,
	// lines 15–23).
	sciuCache map[graph.VertexID][]graph.Edge

	// scatterBufs is the reusable per-(worker, range) contribution scratch
	// of the two-phase parallel scatter.
	scatterBufs [][]contrib

	// ioBufs pools the raw byte buffers (*[]byte) that loadBlock and
	// loadSelective read sub-blocks through, on pipeline workers and
	// synchronously alike; decoded edge slices are freshly allocated because
	// they may be retained (priority buffer, FCIU diagonal).
	ioBufs sync.Pool

	// plStats accumulates I/O-pipeline outcomes across all passes.
	plStats pipeline.Stats

	// sem is the per-pass block-level activity bitmap (Options.SEM),
	// rebuilt by semBegin at every pass start; nil when SEM is off.
	sem *semBitmap

	// Compressed-tier counters (see SEMStats). Atomic: pipeline fetch
	// workers decode compressed shared-cache hits concurrently.
	semCompHits, semCompBytes, semDecBytes, semDecodeNanos atomic.Int64

	// valStore, when non-nil, persists the vertex value array on the
	// device each iteration (Options.PersistValues).
	valStore *vertexstore.Store

	computeTime time.Duration
}

// readValues accounts the start-of-iteration vertex value load: a real
// sequential read when values are persisted, a modelled charge otherwise.
func (e *Engine) readValues() error {
	if e.valStore == nil {
		e.layout.ChargeVertexValueRead()
		return nil
	}
	return e.valStore.Read(e.valPrev)
}

// writeValues accounts the end-of-iteration write-back symmetrically.
// Call it after the apply phase, when valCur holds the iteration's result.
func (e *Engine) writeValues() error {
	if e.valStore == nil {
		e.layout.ChargeVertexValueWrite()
		return nil
	}
	return e.valStore.Write(e.valCur)
}

// NewEngine prepares an engine for one run of prog over layout.
func NewEngine(layout *partition.Layout, prog Program, opts Options) (*Engine, error) {
	if layout.Meta.System != "graphsd" {
		return nil, fmt.Errorf("core: layout built for %q, want graphsd (use partition.Build)", layout.Meta.System)
	}
	if prog.Weighted() && !layout.Meta.Weighted {
		return nil, fmt.Errorf("core: program %s needs edge weights but layout is unweighted", prog.Name())
	}
	schedCfg := iosched.Config{
		Profile:           layout.Dev.Profile(),
		NumVertices:       layout.Meta.NumVertices,
		NumEdges:          layout.Meta.NumEdges,
		EdgeRecordBytes:   layout.Meta.EdgeRecordBytes(),
		EdgeBytesOnDisk:   layout.Meta.EdgeDiskBytesTotal(),
		EdgeBytesOnDemand: layout.Meta.SelectiveDiskBytesTotal(),
		P:                 layout.Meta.P,
		BlocksPerRow:      layout.Meta.NonEmptyBlocksPerRow(),
	}
	if opts.SEM {
		// The full model now skips dead rows, so its cost must be priced
		// per frontier rather than as a constant.
		schedCfg.SEM = true
		schedCfg.RowDiskBytes = layout.Meta.RowDiskBytes()
	}
	sched, err := iosched.New(schedCfg)
	if err != nil {
		return nil, err
	}
	bufBytes := opts.BufferBytes
	if bufBytes == 0 && opts.DefaultBuffer {
		bufBytes = layout.Meta.EdgeBytesTotal() / 4
	}
	n := layout.Meta.NumVertices
	e := &Engine{
		layout:       layout,
		prog:         prog,
		opts:         opts,
		sched:        sched,
		n:            n,
		p:            layout.Meta.P,
		valPrev:      make([]float64, n),
		valCur:       make([]float64, n),
		acc:          make([]float64, n),
		accNext:      make([]float64, n),
		touched:      bitset.NewActiveSet(n),
		touchedNext:  bitset.NewActiveSet(n),
		active:       bitset.NewActiveSet(n),
		newActive:    bitset.NewActiveSet(n),
		prescattered: bitset.NewActiveSet(n),
		indexCache:   make(map[buffer.Key]*partition.Index),
	}
	e.buf = buffer.NewWithPolicy(bufBytes, opts.BufferPolicy)
	e.ioBufs.New = func() any { return new([]byte) }
	if prog.HasAux() {
		e.aux = make([]float64, n)
	}
	id := prog.Identity()
	for v := 0; v < n; v++ {
		e.acc[v] = id
		e.accNext[v] = id
	}
	return e, nil
}

// Run executes the program to convergence or the iteration bound and
// returns the result. The result's IO snapshot is computed as a delta over
// the device counters, so it covers exactly this run without resetting the
// device — layouts (and their stats) can be shared between runs.
func Run(layout *partition.Layout, prog Program, opts Options) (*Result, error) {
	return RunContext(context.Background(), layout, prog, opts)
}

// RunContext is Run with cancellation: when ctx is cancelled or times out,
// the engine stops at the next sub-block boundary and returns ctx's error
// (errors.Is(err, context.Canceled) / context.DeadlineExceeded), leaving no
// goroutines behind. This is how the job server aborts running jobs.
func RunContext(ctx context.Context, layout *partition.Layout, prog Program, opts Options) (*Result, error) {
	e, err := NewEngine(layout, prog, opts)
	if err != nil {
		return nil, err
	}
	e.ctx = ctx
	return e.run()
}

// checkCtx reports the run's cancellation state; called between sub-blocks
// and at iteration boundaries so a cancelled run stops promptly without
// tearing down mid-scatter.
func (e *Engine) checkCtx() error {
	select {
	case <-e.ctx.Done():
		return e.ctx.Err()
	default:
		return nil
	}
}

func (e *Engine) run() (*Result, error) {
	if e.opts.Async {
		return e.runAsync()
	}
	start := time.Now()
	if e.ctx == nil {
		e.ctx = context.Background()
	}
	dev := e.layout.Dev
	ioBase := dev.Stats()
	decodeStart := e.layout.DecodeTime()

	var err error
	e.degrees, err = e.layout.LoadDegrees()
	if err != nil {
		return nil, err
	}
	e.prog.Init(e.n, e.valPrev, e.aux, e.active)
	copy(e.valCur, e.valPrev)

	iter := 0
	secondaryPending := false
	resumed := false
	checkpoints := 0
	ck := e.opts.Checkpoint
	if ck.Resume && ck.Dir != "" && checkpoint.Exists(ck.Dir) {
		st, err := checkpoint.Load(ck.Dir)
		if err != nil {
			return nil, err
		}
		if err := e.restoreCheckpoint(st); err != nil {
			return nil, err
		}
		iter = st.Iteration
		secondaryPending = st.SecondaryPending
		resumed = true
	}
	resumedFrom := iter

	if e.opts.PersistValues {
		e.valStore, err = vertexstore.New(dev, "primary", e.n)
		if err != nil {
			return nil, err
		}
		if err := e.valStore.Write(e.valPrev); err != nil {
			return nil, err
		}
	}

	maxIter := e.prog.MaxIterations()
	if e.opts.MaxIterations > 0 {
		maxIter = e.opts.MaxIterations
	}

	var iterStats []IterStat
	for iter < maxIter {
		if err := e.checkCtx(); err != nil {
			return nil, err
		}
		if !secondaryPending && e.active.Empty() && e.touchedNext.Empty() {
			break
		}
		// Promote staged next-iteration contributions to current. The
		// outgoing acc/touched were fully consumed (and identity-reset) by
		// the previous apply phase.
		e.acc, e.accNext = e.accNext, e.acc
		e.touched, e.touchedNext = e.touchedNext, e.touched

		ioBefore := dev.Stats()
		computeBefore := e.computeTime
		plBefore := e.plStats
		decodeBefore := e.layout.DecodeTime()
		path := ""

		if secondaryPending {
			// Second half of an FCIU pass: only secondary sub-blocks.
			path = "fciu-2"
			if err := e.runFCIUSecond(); err != nil {
				return nil, err
			}
			secondaryPending = false
		} else {
			model := e.decide(iter)
			switch {
			case model == iosched.OnDemandIO:
				path = "sciu"
				if err := e.runSCIU(); err != nil {
					return nil, err
				}
			case !e.opts.DisableCrossIteration && iter+1 < maxIter:
				path = "fciu-1"
				if err := e.runFCIUFirst(); err != nil {
					return nil, err
				}
				// The second half applies staged contributions and scatters
				// the secondary sub-blocks from the new frontier; if the
				// first half activated nothing, both are no-ops and the
				// algorithm has converged.
				secondaryPending = !e.newActive.Empty() || !e.touchedNext.Empty()
			default:
				path = "full-single"
				if err := e.runFullSingle(); err != nil {
					return nil, err
				}
			}
		}

		ioDelta := dev.Stats().Sub(ioBefore)
		st := IterStat{
			Index:       iter,
			Path:        path,
			Active:      e.active.Count(),
			IO:          ioDelta,
			IOTime:      ioDelta.TotalTime(),
			ComputeTime: e.computeTime - computeBefore,
			DecodeTime:  e.layout.DecodeTime() - decodeBefore,
			Pipeline:    e.plStats.Sub(plBefore),
		}
		// Feed the measured charge back into the scheduler's calibration
		// loop. fciu-2 consumes the second half of the previous decision's
		// pass, so it carries no decision of its own to observe.
		if path != "fciu-2" {
			executed := iosched.FullIO
			if path == "sciu" {
				executed = iosched.OnDemandIO
			}
			st.Predicted, st.Mispredict = e.sched.Observe(executed, ioDelta.TotalTime())
		}
		iterStats = append(iterStats, st)
		if e.opts.OnIteration != nil {
			e.opts.OnIteration(st)
		}

		// Advance the BSP frontier: next actives are this iteration's
		// activations minus vertices whose next scatter was already
		// performed by cross-iteration computation.
		e.active.CopyFrom(e.newActive)
		e.active.Subtract(e.prescattered)
		e.newActive.Reset()
		e.prescattered.Reset()
		e.valPrev, e.valCur = e.valCur, e.valPrev
		copy(e.valCur, e.valPrev)
		iter++
		if ck.saveEnabled() && iter%ck.Every == 0 {
			if err := e.saveCheckpoint(ck.Dir, iter, secondaryPending); err != nil {
				return nil, err
			}
			checkpoints++
		}
	}

	outputs := make([]float64, e.n)
	tApply := time.Now()
	for v := range outputs {
		outputs[v] = e.prog.Output(graph.VertexID(v), e.valPrev[v], e.aux)
	}
	e.computeTime += time.Since(tApply)

	return &Result{
		Algorithm:         e.prog.Name(),
		Iterations:        iter,
		Converged:         e.active.Empty() && e.touchedNext.Empty() && !secondaryPending,
		Outputs:           outputs,
		WallTime:          time.Since(start),
		ComputeTime:       e.computeTime,
		DecodeTime:        e.layout.DecodeTime() - decodeStart + time.Duration(e.semDecodeNanos.Load()),
		Codec:             e.layout.Meta.BlockCodec().String(),
		CompressRatio:     compressRatio(&e.layout.Meta),
		IO:                dev.Stats().Sub(ioBase),
		SharedHits:        e.sharedHits.Load(),
		SharedMisses:      e.sharedMisses.Load(),
		Decisions:         append([]iosched.Decision(nil), e.sched.History()...),
		SchedulerOverhead: e.sched.TotalOverhead(),
		SchedAccuracy:     e.sched.Accuracy(),
		Buffer:            e.buf.Stats(),
		Pipeline:          e.plStats,
		IterStats:         iterStats,
		Resumed:           resumed,
		ResumedFrom:       resumedFrom,
		Checkpoints:       checkpoints,
		SEM: SEMStats{
			Enabled:         e.opts.SEM || (e.opts.SharedBlocks != nil && e.opts.SharedBlocks.Compressed()),
			BlocksSkipped:   int64(e.plStats.Skipped),
			BytesSkipped:    e.plStats.SkippedBytes,
			CompressedHits:  e.semCompHits.Load(),
			DecodeTime:      time.Duration(e.semDecodeNanos.Load()),
			CompressedBytes: e.semCompBytes.Load(),
			DecodedBytes:    e.semDecBytes.Load(),
		},
	}, nil
}

// compressRatio returns decoded/on-disk edge payload bytes — 1.0 for raw
// layouts, >1 when the delta codec shrank the blocks.
func compressRatio(m *partition.Manifest) float64 {
	disk := m.EdgeDiskBytesTotal()
	if disk <= 0 {
		return 1
	}
	return float64(m.EdgeBytesTotal()) / float64(disk)
}

// decide selects the iteration's I/O access model, honouring ForceModel.
// Forced runs still record a Decision so experiment traces stay uniform.
func (e *Engine) decide(iter int) iosched.Model {
	d := e.sched.Decide(iter, e.active, e.degrees)
	if e.opts.ForceModel != nil {
		return *e.opts.ForceModel
	}
	return d.Model
}

// index returns the vertex index of sub-block (i, j), loading and caching
// it on first use.
func (e *Engine) index(i, j int) (*partition.Index, error) {
	k := buffer.Key{I: i, J: j}
	if idx, ok := e.indexCache[k]; ok {
		return idx, nil
	}
	idx, err := e.layout.LoadIndex(i, j)
	if err != nil {
		return nil, err
	}
	e.indexCache[k] = idx
	return idx, nil
}

// serialApplyThreshold is the vertex count below which the apply phase
// runs single-threaded.
const serialApplyThreshold = 8192

// applyInterval runs the apply phase for every touched vertex of interval j
// (every vertex, for always-active programs), filling newActive and
// restoring the accumulator identity invariant. Apply is embarrassingly
// parallel per vertex — each touches only its own value, accumulator and
// aux slot — so large intervals are chunked across Options.Threads
// workers, with activations gathered per worker and merged serially.
func (e *Engine) applyInterval(j int) {
	lo, hi := e.layout.Meta.Interval(j)
	t0 := time.Now()
	defer func() { e.computeTime += time.Since(t0) }()
	id := e.prog.Identity()

	var pending []int
	if e.prog.AlwaysActive() {
		pending = make([]int, hi-lo)
		for k := range pending {
			pending[k] = lo + k
		}
	} else {
		// Collect first: applying mutates the set being iterated.
		e.touched.ForEachRange(lo, hi, func(v int) bool {
			pending = append(pending, v)
			return true
		})
	}

	workers := e.opts.threads()
	if len(pending) < serialApplyThreshold || workers <= 1 {
		for _, v := range pending {
			nv, act := e.prog.Apply(graph.VertexID(v), e.valPrev[v], e.acc[v], e.aux, e.n)
			e.valCur[v] = nv
			if act {
				e.newActive.Activate(v)
			}
			e.acc[v] = id
			e.touched.Deactivate(v)
		}
		return
	}

	chunk := (len(pending) + workers - 1) / workers
	activated := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		loK, hiK := w*chunk, min((w+1)*chunk, len(pending))
		if loK >= hiK {
			continue
		}
		wg.Add(1)
		go func(w, loK, hiK int) {
			defer wg.Done()
			var acts []int
			for _, v := range pending[loK:hiK] {
				nv, act := e.prog.Apply(graph.VertexID(v), e.valPrev[v], e.acc[v], e.aux, e.n)
				e.valCur[v] = nv
				if act {
					acts = append(acts, v)
				}
				e.acc[v] = id
			}
			activated[w] = acts
		}(w, loK, hiK)
	}
	wg.Wait()
	for _, acts := range activated {
		for _, v := range acts {
			e.newActive.Activate(v)
		}
	}
	for _, v := range pending {
		e.touched.Deactivate(v)
	}
}

// applyAll applies every interval (used by SCIU and the single full pass,
// which scatter everything before applying).
func (e *Engine) applyAll() {
	for j := 0; j < e.p; j++ {
		e.applyInterval(j)
	}
}

// contrib is one gathered edge contribution staged between the two scatter
// phases: the destination vertex and its Gather value. Buckets keep
// contributions in edge order, which keeps the parallel merge order equal
// to the serial one.
type contrib struct {
	dst uint32
	g   float64
}

// scatter merges the contributions of edges whose source is in filter into
// acc/touched, reading source values from vals. dstLo/dstHi bound the
// destinations of edges (the destination interval for sub-block scatters,
// [0, n) otherwise) and size the parallel path's destination partitioning.
//
// The parallel path is a lock-free two-phase scheme: phase 1 workers gather
// their edge chunks and bucket contributions by destination range; after a
// barrier, phase 2 gives each destination range to exactly one worker,
// which merges its buckets into acc and touched without synchronisation —
// ranges are disjoint and 64-aligned, so accumulator slots and bitset words
// are exclusively owned. Phase 1 chunks are contiguous and phase 2 merges
// each range's buckets in worker order, so every destination receives its
// contributions in edge order, exactly as in the serial kernel: the result
// is bit-identical for every thread count.
func (e *Engine) scatter(edges []graph.Edge, vals []float64, filter *bitset.ActiveSet, acc []float64, touched *bitset.ActiveSet, dstLo, dstHi int) {
	if len(edges) == 0 {
		return
	}
	t0 := time.Now()
	defer func() { e.computeTime += time.Since(t0) }()

	workers := e.opts.threads()
	if len(edges) < serialScatterThreshold || workers <= 1 {
		scatterSerial(e.prog, e.degrees, edges, vals, filter, acc, touched)
		return
	}

	// Destination ranges start at a 64-aligned base and span a multiple of
	// 64 vertices, so every bitset word belongs to exactly one range.
	base := dstLo &^ 63
	span := dstHi - base
	rangeSize := (span + workers - 1) / workers
	rangeSize = (rangeSize + 63) &^ 63
	ranges := (span + rangeSize - 1) / rangeSize

	buckets := e.scatterScratch(workers * ranges)
	chunk := (len(edges) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(edges))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			mine := buckets[w*ranges : (w+1)*ranges]
			for _, ed := range edges[lo:hi] {
				if !filter.Contains(int(ed.Src)) {
					continue
				}
				g := e.prog.Gather(vals[ed.Src], ed, e.degrees[ed.Src])
				r := (int(ed.Dst) - base) / rangeSize
				mine[r] = append(mine[r], contrib{dst: uint32(ed.Dst), g: g})
			}
		}(w, lo, hi)
	}
	wg.Wait()

	newly := make([]int, ranges)
	for r := 0; r < ranges; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cnt := 0
			for w := 0; w < workers; w++ {
				for _, c := range buckets[w*ranges+r] {
					acc[c.dst] = e.prog.Merge(acc[c.dst], c.g)
					if touched.ActivateNoCount(int(c.dst)) {
						cnt++
					}
				}
			}
			newly[r] = cnt
		}(r)
	}
	wg.Wait()
	total := 0
	for _, c := range newly {
		total += c
	}
	touched.AddCount(total)
}

// scatterSerial is scatter's single-threaded kernel. Sub-blocks are
// source-sorted, so the filter test, the source value and its degree are
// looked up once per run of equal sources instead of once per edge. Gather
// still sees every edge, so weighted programs are unaffected, and any
// source order stays correct: an unsorted list (an overlay-merged block)
// only has shorter runs.
func scatterSerial(prog Program, degrees []uint32, edges []graph.Edge, vals []float64, filter *bitset.ActiveSet, acc []float64, touched *bitset.ActiveSet) {
	if len(edges) == 0 {
		return
	}
	src := edges[0].Src
	live := filter.Contains(int(src))
	val, deg := vals[src], degrees[src]
	for _, ed := range edges {
		if ed.Src != src {
			src = ed.Src
			live = filter.Contains(int(src))
			val, deg = vals[src], degrees[src]
		}
		if !live {
			continue
		}
		acc[ed.Dst] = prog.Merge(acc[ed.Dst], prog.Gather(val, ed, deg))
		touched.Activate(int(ed.Dst))
	}
}

// scatterScratch returns n reusable contribution buckets, each reset to
// length zero with capacity retained across scatter calls.
func (e *Engine) scatterScratch(n int) [][]contrib {
	for len(e.scatterBufs) < n {
		e.scatterBufs = append(e.scatterBufs, nil)
	}
	buckets := e.scatterBufs[:n]
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	return buckets
}

// activeEdgeCount returns how many of edges have an active source, the
// priority metric of the secondary sub-block buffer.
func activeEdgeCount(edges []graph.Edge, active *bitset.ActiveSet) int64 {
	var c int64
	for _, ed := range edges {
		if active.Contains(int(ed.Src)) {
			c++
		}
	}
	return c
}

// activeEdgeSampleCap bounds the edges examined per buffer-priority
// computation. Sub-blocks above the cap are stride-sampled and the count
// scaled up, so refreshing every resident's priority after an FCIU pass
// costs O(residents × cap) instead of a full rescan of all resident edges.
// The stride is deterministic, keeping engine runs reproducible.
const activeEdgeSampleCap = 4096

// activeEdgeEstimate returns activeEdgeCount exactly for small edge lists
// and a deterministic sampled estimate for large ones.
func activeEdgeEstimate(edges []graph.Edge, active *bitset.ActiveSet) int64 {
	if len(edges) <= activeEdgeSampleCap {
		return activeEdgeCount(edges, active)
	}
	stride := (len(edges) + activeEdgeSampleCap - 1) / activeEdgeSampleCap
	var c, sampled int64
	for k := 0; k < len(edges); k += stride {
		if active.Contains(int(edges[k].Src)) {
			c++
		}
		sampled++
	}
	return c * int64(len(edges)) / sampled
}

// clampedActiveEdgeEstimate is activeEdgeEstimate clamped to ≥1 while the
// block-activity bitmap says source row i is live: stride sampling can miss
// every active source of a live block and return 0, which would demote a
// hot block to the bottom of the eviction order even though it still holds
// active edges.
func clampedActiveEdgeEstimate(edges []graph.Edge, set *bitset.ActiveSet, meta *partition.Manifest, i int) int64 {
	est := activeEdgeEstimate(edges, set)
	if est == 0 && len(edges) > 0 {
		lo, hi := meta.Interval(i)
		if set.CountRange(lo, hi) > 0 {
			est = 1
		}
	}
	return est
}

// chargeIndexAccess charges the per-iteration modelled cost of consulting
// the vertex index under the on-demand model (the paper's C_r includes a
// 2|V|·N sequential-read term for index plus vertex values; the vertex
// value half is charged separately).
func (e *Engine) chargeIndexAccess() {
	e.layout.Dev.Charge(storage.SeqRead, int64(e.n)*graph.IndexEntryBytes)
}
