package main

import (
	"sort"
	"strings"
	"time"

	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/iosched"
	"github.com/graphsd/graphsd/internal/pipeline"
	"github.com/graphsd/graphsd/internal/storage"
)

// layerSpec is one per-layer metric and the end-to-end metric it should
// move, on the workload where it should move it. The list is written down
// before any optimisation is measured against it.
type layerSpec struct {
	name, unit, better, moves string
}

// layerSpecs is every per-layer metric, in report order. Counts are per
// job unless the name says otherwise. On batch workloads the storage, SEM,
// async and iteration counts repeat exactly for a seed.
var layerSpecs = []layerSpec{
	{"storage.read_ops", "count", "lower", "job_ms_p50 and sim_exec_ms_p50 on batch-dense and batch-sparse"},
	{"storage.read_bytes", "B", "lower", "read_bytes_per_job and sim_exec_ms_p50 on both batch workloads"},
	{"storage.rand_read_ops", "count", "lower", "sim_exec_ms_p50 on batch-sparse"},
	{"storage.write_bytes", "B", "lower", "mutate_ack_ms_p50 (report) on serve-mixed"},
	{"storage.sim_io_ms", "ms", "lower", "sim_exec_ms_p50 on both batch workloads"},
	{"storage.retries", "count", "lower", "job_ms_p50 everywhere (0 without faults)"},
	{"storage.whole_file_reads", "count", "lower", "job_ms_p50 on batch-dense: each is an open+stat+read+close"},
	{"codec.decode_ms", "ms", "lower", "job_ms_p50 on batch-dense; about 0 on batch-sparse"},
	{"codec.compress_ratio", "ratio", "higher", "read_bytes_per_job on batch-dense"},
	{"pipeline.blocks", "count", "lower", "job_ms_p50 on batch-dense"},
	{"pipeline.fetch_ms", "ms", "lower", "job_ms_p50 on batch-dense"},
	{"pipeline.stall_ms", "ms", "lower", "job_ms_p50 on batch-dense"},
	{"pipeline.overlap_ms", "ms", "higher", "job_ms_p50 on batch-dense"},
	{"pipeline.fallbacks", "count", "lower", "job_ms_p50 on batch-dense (0 without faults)"},
	{"core.compute_ms", "ms", "lower", "job_ms_p50 and sim_exec_ms_p50 on batch-dense"},
	{"core.sim_exec_ms", "ms", "lower", "sim_exec_ms_p50, the paper's figure of merit, on both batch workloads"},
	{"core.iterations", "count", "lower", "job_ms_p50 on batch-sparse"},
	{"core.iters_sciu", "count", "higher", "job_ms_p50 on batch-sparse"},
	{"core.iters_fciu", "count", "lower", "job_ms_p50 on batch-dense"},
	{"core.iters_full", "count", "lower", "job_ms_p50 on batch-dense"},
	{"core.overhead_ms", "ms", "lower", "job_ms_p50 on batch-sparse (job wall - compute - stall)"},
	{"iosched.decisions", "count", "lower", "job_ms_p50 on batch-sparse"},
	{"iosched.overhead_ms", "ms", "lower", "job_ms_p50 on batch-sparse; no change on batch-dense"},
	{"iosched.mispredict_mean", "ratio", "lower", "read_bytes_per_job on batch-sparse"},
	{"iosched.ondemand_share", "ratio", "higher", "read_bytes_per_job on batch-sparse"},
	{"sem.blocks_skipped", "count", "higher", "read_bytes_per_job on batch-sparse"},
	{"sem.bytes_skipped", "B", "higher", "read_bytes_per_job on batch-sparse"},
	{"sem.skip_ratio", "ratio", "higher", "read_bytes_per_job on batch-sparse"},
	{"sem.compressed_hits", "count", "higher", "read_bytes_per_job on batch-sparse"},
	{"async.steps", "count", "lower", "job_ms_p50 on batch-sparse"},
	{"async.blocks_scheduled", "count", "lower", "job_ms_p50 on batch-sparse"},
	{"async.reactivations", "count", "lower", "job_ms_p50 on batch-sparse"},
	{"buffer.hits", "count", "higher", "read_bytes_per_job on batch-dense"},
	{"buffer.misses", "count", "lower", "read_bytes_per_job on batch-dense"},
	{"buffer.hit_ratio", "ratio", "higher", "read_bytes_per_job on batch-dense"},
	{"buffer.evictions", "count", "lower", "read_bytes_per_job on batch-dense"},
	{"buffer.bytes_saved", "B", "higher", "read_bytes_per_job on batch-dense"},
	{"buffer.shared_hits", "count", "higher", "job_ms_p50 on serve-mixed"},
	{"buffer.shared_misses", "count", "lower", "job_ms_p50 on serve-mixed"},
	{"buffer.shared_hit_ratio", "ratio", "higher", "job_ms_p50 on serve-mixed"},
	{"buffer.shared_evictions", "count", "lower", "job_ms_p50 on serve-mixed"},
	{"jobs.queue_wait_share", "ratio", "lower", "job_ms_p90 on serve-mixed (share of submit->terminal spent queued)"},
	{"jobs.run_share", "ratio", "higher", "job_ms_p90 on serve-mixed (share spent running)"},
	{"jobs.rejected", "count", "lower", "jobs_per_s on serve-mixed (429 replies in the window)"},
	{"server.submit_share", "ratio", "lower", "job_ms_p50 on serve-mixed; includes the journal fsync"},
	{"server.poll_share", "ratio", "lower", "job_ms_p50 on serve-mixed"},
	{"server.polls_per_job", "count", "lower", "job_ms_p50 on serve-mixed (polls that found the job unfinished)"},
	{"server.result_share", "ratio", "lower", "job_ms_p50 on serve-mixed (result encoding)"},
	{"delta.batches", "count", "higher", "mutations_per_s (report) on serve-mixed, in the window"},
	{"delta.seals", "count", "lower", "mutate_ack_ms_p99 (report) and job_ms_p50 on serve-mixed, in the window"},
	{"delta.compactions", "count", "lower", "mutate_ack_ms_p99 (report) and job_ms_p50 on serve-mixed, in the window"},
	{"delta.layers_max", "count", "lower", "job_ms_p50 on serve-mixed"},
	{"delta.write_amp", "ratio", "lower", "mutations_per_s (report) on serve-mixed"},
	{"wal.records", "count", "lower", "mutate_ack_ms_p50 (report) on serve-mixed, in the window"},
	{"wal.bytes", "B", "lower", "mutate_ack_ms_p50 (report) on serve-mixed, in the window"},
	{"journal.records_per_job", "ratio", "lower", "server.submit_share and job_ms_p50 on serve-mixed"},
	{"partition.build_ms", "ms", "lower", "setup_s on every workload"},
	{"trace.overhead_ratio", "ratio", "lower", "none: traced job_ms_p50 / untraced job_ms_p50"},
	{"trace.device_events", "count", "lower", "none: device events seen through Device.SetTracer"},
}

// runStats is what the per-layer metrics need from one engine run. The
// benchmark keeps it instead of the core.Result, whose per-iteration trace
// would make the benchmark's own memory grow with every job it runs.
type runStats struct {
	key  string        // algorithm, and source for traversals
	wall time.Duration // measured around the run
	io   storage.Snapshot

	decode, compute, exec, sched time.Duration
	pipeline                     pipeline.Stats
	compressRatio                float64
	iterations                   int
	itersSCIU, itersFCIU         int
	itersFull                    int
	decisions, onDemand          int
	mispredict                   float64
	sem                          core.SEMStats
	async                        core.AsyncStats
	buffer                       buffer.Stats
}

func statsOf(key string, wall time.Duration, r *core.Result) runStats {
	s := runStats{
		key: key, wall: wall, io: r.IO,
		decode: r.DecodeTime, compute: r.ComputeTime, exec: r.ExecTime(), sched: r.SchedulerOverhead,
		pipeline: r.Pipeline, compressRatio: r.CompressRatio, iterations: r.Iterations,
		decisions: len(r.Decisions), mispredict: r.SchedAccuracy.MeanMispredict,
		sem: r.SEM, async: r.Async, buffer: r.Buffer,
	}
	for _, st := range r.IterStats {
		switch st.Path {
		case "sciu":
			s.itersSCIU++
		case "fciu-1", "fciu-2":
			s.itersFCIU++
		case "full-single":
			s.itersFull++
		}
	}
	for _, d := range r.Decisions {
		if d.Model == iosched.OnDemandIO {
			s.onDemand++
		}
	}
	return s
}

// kind is the run's algorithm: its key without the source.
func (r runStats) kind() string {
	k, _, _ := strings.Cut(r.key, "/")
	return k
}

// perKeyMean averages f over the runs of each key, then over keys, so the
// result does not depend on how many runs of each key fit in the window.
func perKeyMean(runs []runStats, f func(runStats) float64) float64 {
	sum := map[string]float64{}
	n := map[string]int{}
	for _, r := range runs {
		sum[r.key] += f(r)
		n[r.key]++
	}
	if len(n) == 0 {
		return 0
	}
	total := 0.0
	for k := range n {
		total += sum[k] / float64(n[k])
	}
	return total / float64(len(n))
}

// kindMedianOf is kindMedian of f over the runs, grouped by kind.
func kindMedianOf(runs []runStats, f func(runStats) float64) float64 {
	if len(runs) == 0 {
		return 0
	}
	byKind := map[string][]float64{}
	for _, r := range runs {
		byKind[r.kind()] = append(byKind[r.kind()], f(r))
	}
	return kindMedian(byKind)
}

// sumRatio is Σnum / Σden over the runs.
func sumRatio(runs []runStats, num, den func(runStats) float64) float64 {
	var n, d float64
	for _, r := range runs {
		n += num(r)
		d += den(r)
	}
	return ratio(n, d)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// engineLayers fills the codec, pipeline, core, scheduler, SEM, async and
// per-run buffer metrics from the engine's own Result counters. Counts are
// per-key means (exact on batch workloads); times are per-kind medians.
func engineLayers(m map[string]metric, runs []runStats) {
	count := func(name, unit string, f func(runStats) float64) { m[name] = metric{perKeyMean(runs, f), unit} }
	timing := func(name string, f func(runStats) time.Duration) {
		m[name] = metric{kindMedianOf(runs, func(r runStats) float64 { return ms(f(r)) }), "ms"}
	}
	share := func(name string, num, den func(runStats) float64) {
		m[name] = metric{sumRatio(runs, num, den), "ratio"}
	}

	timing("codec.decode_ms", func(r runStats) time.Duration { return r.decode })
	count("codec.compress_ratio", "ratio", func(r runStats) float64 { return r.compressRatio })

	count("pipeline.blocks", "count", func(r runStats) float64 { return float64(r.pipeline.Blocks) })
	timing("pipeline.fetch_ms", func(r runStats) time.Duration { return r.pipeline.Fetch })
	timing("pipeline.stall_ms", func(r runStats) time.Duration { return r.pipeline.Stall })
	timing("pipeline.overlap_ms", func(r runStats) time.Duration { return r.pipeline.Overlap })
	count("pipeline.fallbacks", "count", func(r runStats) float64 { return float64(r.pipeline.Fallbacks) })

	timing("core.compute_ms", func(r runStats) time.Duration { return r.compute })
	timing("core.sim_exec_ms", func(r runStats) time.Duration { return r.exec })
	count("core.iterations", "count", func(r runStats) float64 { return float64(r.iterations) })
	count("core.iters_sciu", "count", func(r runStats) float64 { return float64(r.itersSCIU) })
	count("core.iters_fciu", "count", func(r runStats) float64 { return float64(r.itersFCIU) })
	count("core.iters_full", "count", func(r runStats) float64 { return float64(r.itersFull) })
	timing("core.overhead_ms", func(r runStats) time.Duration { return r.wall - r.compute - r.pipeline.Stall })

	count("iosched.decisions", "count", func(r runStats) float64 { return float64(r.decisions) })
	timing("iosched.overhead_ms", func(r runStats) time.Duration { return r.sched })
	share("iosched.mispredict_mean", func(r runStats) float64 { return r.mispredict }, func(runStats) float64 { return 1 })
	share("iosched.ondemand_share", func(r runStats) float64 { return float64(r.onDemand) },
		func(r runStats) float64 { return float64(r.decisions) })

	count("sem.blocks_skipped", "count", func(r runStats) float64 { return float64(r.sem.BlocksSkipped) })
	count("sem.bytes_skipped", "B", func(r runStats) float64 { return float64(r.sem.BytesSkipped) })
	share("sem.skip_ratio", func(r runStats) float64 { return float64(r.sem.BlocksSkipped) },
		func(r runStats) float64 { return float64(r.sem.BlocksSkipped) + float64(r.pipeline.Blocks) })
	count("sem.compressed_hits", "count", func(r runStats) float64 { return float64(r.sem.CompressedHits) })

	count("async.steps", "count", func(r runStats) float64 { return float64(r.async.Steps) })
	count("async.blocks_scheduled", "count", func(r runStats) float64 { return float64(r.async.BlocksScheduled) })
	count("async.reactivations", "count", func(r runStats) float64 { return float64(r.async.Reactivations) })

	count("buffer.hits", "count", func(r runStats) float64 { return float64(r.buffer.Hits) })
	count("buffer.misses", "count", func(r runStats) float64 { return float64(r.buffer.Misses) })
	share("buffer.hit_ratio", func(r runStats) float64 { return float64(r.buffer.Hits) },
		func(r runStats) float64 { return float64(r.buffer.Hits + r.buffer.Misses) })
	count("buffer.evictions", "count", func(r runStats) float64 { return float64(r.buffer.Evictions) })
	count("buffer.bytes_saved", "B", func(r runStats) float64 { return float64(r.buffer.BytesSaved) })
}

// storageLayers fills the storage metrics; per turns a device-counter
// reading into its value per operation.
func storageLayers(m map[string]metric, per func(func(storage.Snapshot) float64) float64) {
	set := func(name, unit string, f func(storage.Snapshot) float64) { m[name] = metric{per(f), unit} }
	set("storage.read_ops", "count", func(s storage.Snapshot) float64 { return float64(s.Ops[storage.SeqRead] + s.Ops[storage.RandRead]) })
	set("storage.read_bytes", "B", func(s storage.Snapshot) float64 { return float64(s.ReadBytes()) })
	set("storage.rand_read_ops", "count", func(s storage.Snapshot) float64 { return float64(s.Ops[storage.RandRead]) })
	set("storage.write_bytes", "B", func(s storage.Snapshot) float64 { return float64(s.WriteBytes()) })
	set("storage.sim_io_ms", "ms", func(s storage.Snapshot) float64 { return ms(s.TotalTime()) })
	set("storage.retries", "count", func(s storage.Snapshot) float64 { return float64(s.Retries) })
}

// traceLayers fills the tracing and build metrics; every metric the
// workload did not exercise is reported as measured, zero.
func traceLayers(m map[string]metric, tr *tracer, untracedP50, tracedP50 float64) {
	spans, _, _ := tr.snapshot()
	m["partition.build_ms"] = metric{median(spanDurations(spans)["partition.Build"]), "ms"}
	m["trace.overhead_ratio"] = metric{ratio(tracedP50, untracedP50), "ratio"}
	m["trace.device_events"] = metric{float64(tr.deviceEvents()), "count"}
	for _, s := range layerSpecs {
		if _, ok := m[s.name]; !ok {
			m[s.name] = metric{0, s.unit}
		}
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
