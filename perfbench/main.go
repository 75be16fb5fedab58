// Command perfbench is the repository benchmark. It runs one named
// workload against the public API of the engine (core.Run over
// partition.Build layouts) or of the job server (server.New behind a
// loopback HTTP listener), checks every output, and prints the end-to-end
// metrics, or with -trace 1 the per-layer metrics of a separate traced run.
//
//	perfbench -workload batch-dense -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Lines before it are the human-readable report: the host fingerprint,
// every metric with its unit and sample count, and the per-layer map.
// The exit code is 1 when an output or a deterministic counter is wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// A run sets its workload up at least minSetups times and, while the
// set-ups so far took less than setupBudget, up to maxSetups times;
// setup_s is the median. Cheap set-ups get more repeats, which steadies
// a median of fsync-bound times.
const (
	minSetups   = 3
	maxSetups   = 11
	setupBudget = 3 * time.Second
)

// heldOutSeed is reserved for confirming a claimed gain on a seed that was
// not used while the change was written.
const heldOutSeed = 7919

type workload struct {
	name string
	why  string
	run  func(c *runCtx) error
}

var workloads = []workload{
	{"batch-dense", "every vertex stays active: sequential sub-block reads, decode, scatter/apply, pipeline overlap and the FCIU buffer", runDense},
	{"batch-sparse", "a frontier a few vertices wide for hundreds of iterations: scheduler, SEM bitmaps and the async heap dominate", runSparse},
	{"serve-mixed", "jobs read while a writer mutates the same graph: admission, shared cache, snapshot reads, journal and WAL fsyncs", runServeMixed},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runCtx carries one run's settings and collects what it measured.
type runCtx struct {
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string
	tr      *tracer // nil unless traced

	led      *ledger
	e2e      map[string]metric
	layers   map[string]metric
	report   []string
	setupSec []float64
}

// note adds a line to the human-readable report.
func (c *runCtx) note(format string, args ...any) {
	c.report = append(c.report, fmt.Sprintf(format, args...))
}

// tail reports the highest percentile with at least ten samples beyond it.
func (c *runCtx) tail(name string, xs []float64, unit string) {
	if p := highestTail(len(xs)); p > 0 {
		c.note("%-22s p%g = %.4f %s (n=%d)", name, p, percentile(xs, p), unit, len(xs))
	}
}

// sample reports a percentile with its sample count.
func (c *runCtx) sample(name string, xs []float64, p float64, unit string) {
	switch {
	case len(xs) == 0:
		c.note("%-22s n/a (no samples)", name)
	case p > 50 && !tailSupported(len(xs), p):
		c.note("%-22s n/a (n=%d: fewer than 10 samples beyond p%g)", name, len(xs), p)
	default:
		c.note("%-22s %.4f %s (n=%d)", name, percentile(xs, p), unit, len(xs))
	}
}

// setupMedian sets the workload up repeatedly in fresh directories,
// records each set-up time for setup_s, and returns the last environment;
// the others are closed.
func setupMedian[E any](c *runCtx, setup func(dir string) (E, error), closeEnv func(E) error) (E, error) {
	var env E
	var spent time.Duration
	for i := 0; ; i++ {
		if i > 0 {
			if i >= maxSetups || i >= minSetups && spent >= setupBudget {
				return env, nil
			}
			if err := closeEnv(env); err != nil {
				return env, err
			}
			if err := os.RemoveAll(filepath.Join(c.dir, fmt.Sprintf("setup-%d", i-1))); err != nil {
				return env, err
			}
		}
		dir := filepath.Join(c.dir, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		e, err := setup(dir)
		d := time.Since(t0)
		if err != nil {
			return env, fmt.Errorf("set-up: %w", err)
		}
		spent += d
		c.setupSec = append(c.setupSec, d.Seconds())
		env = e
	}
}

// endToEnd is every end-to-end metric, in BENCHMARK.json's order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},            // graph generation + partition.Build + server open; median of set-ups
	{"jobs_per_s", "1/s"},       // jobs completed in the window per second
	{"job_ms_p50", "ms"},        // median job latency of each kind, averaged over kinds
	{"sim_exec_ms_p50", "ms"},   // median Result.ExecTime of each kind, averaged over kinds
	{"read_bytes_per_job", "B"}, // device bytes read per job
	{"peak_rss_mb", "MiB"},      // peak resident memory during the window
}

// finish fills in the end-to-end metrics; peakMiB is the peak resident
// memory of the measurement window.
func (c *runCtx) finish(jobsPerSec, jobP50, simP50, readBytes float64, jobs int, peakMiB float64) {
	vals := map[string]float64{"setup_s": median(c.setupSec), "jobs_per_s": jobsPerSec, "job_ms_p50": jobP50,
		"sim_exec_ms_p50": simP50, "read_bytes_per_job": readBytes, "peak_rss_mb": peakMiB}
	for _, m := range endToEnd {
		c.e2e[m.name] = metric{vals[m.name], m.unit}
	}
	c.note("%-22s %.4f s (median of n=%d set-ups)", "setup_s", median(c.setupSec), len(c.setupSec))
	c.note("%-22s %.4f MiB (measured window)", "peak_rss_mb", peakMiB)
	c.note("%-22s %.6f ratio (%d of %d)", "ops_failed_ratio", c.led.failedRatio(), c.led.failed, c.led.attempted)
	if jobs == 0 {
		c.led.fail("no job completed inside the measurement window")
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a separate traced run")
	workdir := flag.String("workdir", ".bench_build", "directory for layouts, journals and traces")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds ≥ 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	os.Exit(run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir))
}

func run(w workload, seed int64, seconds time.Duration, traced bool, workdir string) int {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	c := &runCtx{seed: seed, seconds: seconds, traced: traced, dir: dir,
		led: newLedger(), e2e: map[string]metric{}, layers: map[string]metric{}}
	if traced {
		c.tr = newTracer()
	}
	h := fingerprint(dir)
	hj, _ := json.Marshal(h)
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%t held-out-seed=%d\n", w.name, seed, int(seconds.Seconds()), traced, heldOutSeed)
	fmt.Printf("host %s\n", hj)

	if err := w.run(c); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, line := range c.report {
		fmt.Println("  " + line)
	}
	if traced {
		path := filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, seed))
		if err := c.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", path)
		printLayerMap(c.layers)
	}
	for _, e := range c.led.examples {
		fmt.Println("  FAILED " + e)
	}

	out := c.e2e
	if traced {
		out = c.layers
	}
	for name, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			c.led.fail(name + " was not measured")
			out[name] = metric{0, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{c.led.correct, c.led.attempted, c.led.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !c.led.correct {
		return 1
	}
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// printLayerMap prints every per-layer metric with the end-to-end metric it
// should move.
func printLayerMap(got map[string]metric) {
	fmt.Println("per-layer metrics (traced run):")
	for _, spec := range layerSpecs {
		m := got[spec.name]
		fmt.Printf("  %-26s %14.4f %-6s -> %s\n", spec.name, m.Value, m.Unit, spec.moves)
	}
}
