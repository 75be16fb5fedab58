package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"time"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// verifyTolerance is `graphsd verify`'s relative tolerance for sum-style
// programs (PR, PR-Delta); min-style programs must match bit for bit.
const verifyTolerance = 1e-9

// batchJob is one entry of a batch workload's job cycle.
type batchJob struct {
	key    string // algorithm and source; equal keys must repeat every counter
	layout *partition.Layout
	graph  *graph.Graph
	prog   func() core.Program
	opts   core.Options
	// refIters bounds the reference run (0: the program's own bound).
	refIters int
	exact    bool
	want     []float64
}

// batchEnv is a set-up batch workload: layouts on their devices and the
// job cycle the client runs against them.
type batchEnv struct {
	jobs []batchJob
	devs []*storage.Device
}

// build preprocesses g into a delta-coded P=8 layout on a fresh device.
func build(tr *tracer, dir string, g *graph.Graph) (*partition.Layout, *storage.Device, error) {
	dev, err := storage.OpenDevice(dir, storage.ScaledHDD)
	if err != nil {
		return nil, nil, err
	}
	sp := tr.begin("partition.Build", 0, 0)
	l, err := partition.Build(dev, g, gridP, partition.WithCodec(graph.CodecDelta))
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("partition.Build: %w", err)
	}
	return l, dev, nil
}

// setupDense: PageRank (5 iterations) and PR-Delta (20, tol 1e-6)
// alternate on an R-MAT scale-17 graph with the `graphsd run` defaults.
func setupDense(seed int64, dir string, tr *tracer) (*batchEnv, error) {
	g, err := rmatGraph(denseScale, denseEdgeFactor, seed)
	if err != nil {
		return nil, err
	}
	l, dev, err := build(tr, filepath.Join(dir, "rmat"), g)
	if err != nil {
		return nil, err
	}
	opts := core.Options{DefaultBuffer: true}
	return &batchEnv{
		devs: []*storage.Device{dev},
		jobs: []batchJob{
			{key: "pr", layout: l, graph: g, opts: opts,
				prog: func() core.Program { return &algorithms.PageRank{Iterations: 5} }},
			{key: "prd", layout: l, graph: g, opts: opts,
				prog: func() core.Program { return &algorithms.PageRankDelta{Iterations: 20, Tolerance: 1e-6} }},
		},
	}, nil
}

// setupSparse: BFS (BSP, SEM) and SSSP (async, SEM, weighted copy)
// alternate on the road-sim graph from seeded sources in the first 1%.
func setupSparse(seed int64, dir string, tr *tracer) (*batchEnv, error) {
	road := roadGraph(roadVertices)
	roadW := weightedCopy(road, seed)
	l, dev, err := build(tr, filepath.Join(dir, "road"), road)
	if err != nil {
		return nil, err
	}
	lw, devW, err := build(tr, filepath.Join(dir, "road-w"), roadW)
	if err != nil {
		return nil, err
	}
	env := &batchEnv{devs: []*storage.Device{dev, devW}}
	bsp := core.Options{DefaultBuffer: true, SEM: true}
	async := core.Options{DefaultBuffer: true, SEM: true, Async: true, AsyncSeed: uint64(subSeed(seed, "async"))}
	for _, src := range prefixSources(seed, roadVertices, sparseSources) {
		env.jobs = append(env.jobs,
			batchJob{key: fmt.Sprintf("bfs/%d", src), layout: l, graph: road, opts: bsp, exact: true,
				prog: func() core.Program { return &algorithms.BFS{Source: src} }},
			// Async runs to frontier drain, so its oracle must converge
			// too: Bellman-Ford needs at most n-1 rounds.
			batchJob{key: fmt.Sprintf("sssp/%d", src), layout: lw, graph: roadW, opts: async, exact: true,
				refIters: roadVertices,
				prog:     func() core.Program { return &algorithms.SSSP{Source: src} }})
	}
	return env, nil
}

// prepare computes every job's reference outputs with core.RunReference.
// It is not part of set-up time: users do not pay for an oracle.
func (e *batchEnv) prepare() error {
	for i := range e.jobs {
		j := &e.jobs[i]
		want, iters := core.RunReference(j.graph, j.prog(), j.refIters)
		if j.refIters > 0 && iters >= j.refIters {
			return fmt.Errorf("reference %s did not converge in %d iterations", j.key, iters)
		}
		j.want = want
	}
	return nil
}

// batchRun is one completed core.Run.
type batchRun struct {
	runStats
	end    time.Time
	inside bool
	span   int64 // the core.Run span, owner of the run's device events
}

// runBatch is the closed-loop batch client: one goroutine calling core.Run
// back to back, cycling through the job list until the window closes. The
// job in flight at the deadline is drained: checked, not timed.
func runBatch(env *batchEnv, w window, tr *tracer, led *ledger) []batchRun {
	for _, d := range env.devs {
		tr.attach(d)
	}
	var runs []batchRun
	for i := 0; w.open(); i++ {
		j := env.jobs[i%len(env.jobs)]
		root := tr.begin("job", 0, 0)
		sp := tr.begin("core.Run", root.id, root.job)
		tr.own(sp)
		t0 := time.Now()
		res, err := core.Run(j.layout, j.prog(), j.opts)
		end := time.Now()
		tr.own(spanRef{})
		tr.end(sp)
		r := opResult{Err: err}
		if err == nil {
			r.Mismatch = compareOutputs(res.Outputs, j.want, j.exact)
			runs = append(runs, batchRun{runStats: statsOf(j.key, end.Sub(t0), res),
				end: end, inside: w.inside(end), span: sp.id})
		}
		tr.end(root)
		led.add(r)
	}
	for _, d := range env.devs {
		d.SetTracer(nil)
	}
	return runs
}

// compareOutputs checks got against want: bit-identical when exact,
// otherwise within verifyTolerance relative difference. It returns a
// description of the first difference, or "".
func compareOutputs(got, want []float64, exact bool) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d outputs, want %d", len(got), len(want))
	}
	for v := range want {
		if exact {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				return fmt.Sprintf("vertex %d: %v, want %v", v, got[v], want[v])
			}
		} else if relDiff(got[v], want[v]) > verifyTolerance {
			return fmt.Sprintf("vertex %d: %v, want %v (tolerance %g)", v, got[v], want[v], verifyTolerance)
		}
	}
	return ""
}

// relDiff is `graphsd verify`'s relative difference.
func relDiff(a, b float64) float64 {
	if a == b || (math.IsInf(a, 1) && math.IsInf(b, 1)) {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return d
	}
	return d / m
}

// detCounters are the counters of one batch job that depend only on the
// inputs and options, never on timing: every run of the same job key must
// report them exactly.
type detCounters struct {
	ReadBytes, ReadOps, RandReadOps, WriteBytes int64
	SimIO                                       time.Duration
	Retries                                     int64
	Iterations                                  int
	SEMBlocksSkipped, SEMBytesSkipped           int64
	AsyncSteps                                  int
	AsyncBlocks, AsyncReactivations             int64
}

func countersOf(r runStats) detCounters {
	return detCounters{
		ReadBytes:          r.io.ReadBytes(),
		ReadOps:            r.io.Ops[storage.SeqRead] + r.io.Ops[storage.RandRead],
		RandReadOps:        r.io.Ops[storage.RandRead],
		WriteBytes:         r.io.WriteBytes(),
		SimIO:              r.io.TotalTime(),
		Retries:            r.io.Retries,
		Iterations:         r.iterations,
		SEMBlocksSkipped:   r.sem.BlocksSkipped,
		SEMBytesSkipped:    r.sem.BytesSkipped,
		AsyncSteps:         r.async.Steps,
		AsyncBlocks:        r.async.BlocksScheduled,
		AsyncReactivations: r.async.Reactivations,
	}
}

// checkDeterminism fails the ledger for every job key whose deterministic
// counters differ between runs, and returns each key's counters.
func checkDeterminism(runs []batchRun, led *ledger) map[string]detCounters {
	first := map[string]detCounters{}
	for _, r := range runs {
		c := countersOf(r.runStats)
		if f, ok := first[r.key]; !ok {
			first[r.key] = c
		} else if f != c {
			led.fail(fmt.Sprintf("%s: deterministic counters changed between runs: %+v then %+v", r.key, f, c))
		}
	}
	return first
}

func runDense(c *runCtx) error  { return runBatchWorkload(c, setupDense) }
func runSparse(c *runCtx) error { return runBatchWorkload(c, setupSparse) }

// runBatchWorkload sets a batch workload up, runs the untraced window for
// the end-to-end metrics and, when traced, a second window on the same
// layouts for the per-layer metrics.
func runBatchWorkload(c *runCtx, setup func(int64, string, *tracer) (*batchEnv, error)) error {
	env, err := setupMedian(c, func(dir string) (*batchEnv, error) { return setup(c.seed, dir, c.tr) },
		func(*batchEnv) error { return nil })
	if err != nil {
		return err
	}
	if err := env.prepare(); err != nil {
		return err
	}
	resetPeakRSS()
	w := newWindow(c.seconds)
	runs := runBatch(env, w, nil, c.led)
	peak := peakRSSMiB()
	var lat []float64
	byKind, simByKind := map[string][]float64{}, map[string][]float64{}
	var last time.Time
	drained := 0
	for _, r := range runs {
		if !r.inside {
			drained++
			continue
		}
		lat = append(lat, ms(r.wall))
		byKind[r.kind()] = append(byKind[r.kind()], ms(r.wall))
		simByKind[r.kind()] = append(simByKind[r.kind()], ms(r.exec))
		last = r.end
	}
	det := checkDeterminism(runs, c.led)
	var readBytes float64
	for _, d := range det {
		readBytes += float64(d.ReadBytes)
	}
	readBytes /= float64(len(det))

	c.note("%-22s %.4f 1/s (%d jobs)", "jobs_per_s", rate(len(lat), w, last), len(lat))
	for _, k := range sortedKeys(byKind) {
		c.sample("job_ms_p50 "+k, byKind[k], 50, "ms")
		c.sample("sim_exec_ms_p50 "+k, simByKind[k], 50, "ms")
	}
	c.sample("job_ms_p50 pooled", lat, 50, "ms")
	c.sample("job_ms_p90", lat, 90, "ms")
	c.tail("job_ms_tail", lat, "ms")
	c.note("read_bytes_per_job is deterministic: the mean over %d job keys of each key's exact count", len(det))
	c.note("%-22s %d (in flight at the deadline, checked but not timed)", "drained_jobs", drained)
	digest := fnv.New64a()
	for _, k := range sortedKeys(det) {
		c.note("counters %-13s %+v", k, det[k])
		fmt.Fprintf(digest, "%s %+v\n", k, det[k])
	}
	c.note("%-22s %016x (equal for every run of this seed)", "counters_digest", digest.Sum64())
	c.finish(rate(len(lat), w, last), kindMedian(byKind), kindMedian(simByKind), readBytes, len(lat), peak)

	if !c.traced {
		return nil
	}
	tw := newWindow(c.seconds)
	traced := runBatch(env, tw, c.tr, c.led)
	checkDeterminism(append(runs, traced...), c.led)
	var stats []runStats
	tlat := map[string][]float64{}
	var fileReads float64
	for _, r := range traced {
		stats = append(stats, r.runStats)
		if r.inside {
			tlat[r.kind()] = append(tlat[r.kind()], ms(r.wall))
		}
		fileReads += float64(c.tr.fileReadsOf(r.span))
	}
	m := c.layers
	engineLayers(m, stats)
	storageLayers(m, func(f func(storage.Snapshot) float64) float64 {
		return perKeyMean(stats, func(r runStats) float64 { return f(r.io) })
	})
	m["storage.whole_file_reads"] = metric{ratio(fileReads, float64(len(traced))), "count"}
	traceLayers(m, c.tr, kindMedian(byKind), kindMedian(tlat))
	return nil
}
