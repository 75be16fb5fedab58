package core_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

// The I/O pipeline must be invisible to the computation: prefetched runs
// produce bit-identical outputs to synchronous runs, because sub-blocks are
// consumed in exactly the same order either way.

func pipelineTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(10, 10, gen.Graph500, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEnginePrefetchEquivalence(t *testing.T) {
	g := pipelineTestGraph(t)
	variants := map[string]core.Options{
		"sync":          {PrefetchDepth: -1},
		"default":       {},
		"deep":          {PrefetchDepth: 8},
		"sync-buffered": {PrefetchDepth: -1, DefaultBuffer: true},
		"buffered":      {DefaultBuffer: true},
	}
	for pname, mk := range testPrograms(0) {
		var base []float64
		for _, vname := range []string{"sync", "default", "deep", "sync-buffered", "buffered"} {
			opts := variants[vname]
			layout := buildLayoutProf(t, g, 4, storage.ScaledHDD)
			res, err := core.Run(layout, mk(), opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", pname, vname, err)
			}
			if base == nil {
				base = res.Outputs
				continue
			}
			// Same consumption order either way: results must be
			// bit-identical, not merely close.
			compareOutputs(t, pname+"/"+vname, res.Outputs, base, 0)
		}
	}
}

func TestEnginePrefetchStats(t *testing.T) {
	g := pipelineTestGraph(t)

	layout := buildLayoutProf(t, g, 4, storage.ScaledHDD)
	res, err := core.Run(layout, &algorithms.PageRank{Iterations: 3}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipeline.Blocks == 0 || res.Pipeline.Bytes == 0 {
		t.Fatalf("pipelined run recorded no prefetches: %+v", res.Pipeline)
	}
	if res.Pipeline.Fetch == 0 {
		t.Fatalf("pipelined run recorded no fetch time: %+v", res.Pipeline)
	}
	sum := 0
	for _, st := range res.IterStats {
		sum += st.Pipeline.Blocks
	}
	if sum != res.Pipeline.Blocks {
		t.Fatalf("per-iteration blocks sum %d, run total %d", sum, res.Pipeline.Blocks)
	}

	layout = buildLayoutProf(t, g, 4, storage.ScaledHDD)
	res, err = core.Run(layout, &algorithms.PageRank{Iterations: 3}, core.Options{PrefetchDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipeline != (core.Result{}).Pipeline {
		t.Fatalf("synchronous run recorded pipeline activity: %+v", res.Pipeline)
	}
}

// TestEnginePrefetchErrorMidStream fails the k-th sub-block read while
// several later fetches are already in flight; the engine must surface the
// injected error (not a cancellation artifact) and shut the pipeline down
// without hanging.
func TestEnginePrefetchErrorMidStream(t *testing.T) {
	boom := errors.New("mid-stream read failure")
	for _, failAt := range []int32{1, 3, 6} {
		l := faultLayout(t)
		var reads int32
		l.Dev.SetFaultInjector(func(op, name string) error {
			if strings.HasPrefix(name, "blocks/") && strings.HasSuffix(name, ".edges") && op == "read" {
				if atomic.AddInt32(&reads, 1) == failAt {
					return boom
				}
			}
			return nil
		})
		_, err := core.Run(l, &algorithms.PageRank{Iterations: 3}, core.Options{PrefetchDepth: 4})
		if !errors.Is(err, boom) {
			t.Fatalf("failAt=%d: fault not surfaced: %v", failAt, err)
		}
	}
}

// TestParallelScatterMatchesSerial stress-tests the lock-free two-phase
// scatter against the single-threaded path on a graph large enough that
// every configuration exceeds the serial threshold. Phase 2 merges each
// destination's contributions in edge order, so the outputs must be
// bit-identical for every thread count, the derived default (Threads 0)
// included. Run under -race this doubles as the data-race check for the
// destination-partitioned merge.
func TestParallelScatterMatchesSerial(t *testing.T) {
	g, err := gen.RMAT(12, 12, gen.Graph500, 11)
	if err != nil {
		t.Fatal(err)
	}
	for pname, mk := range testPrograms(0) {
		layout := buildLayout(t, g, 2)
		serial, err := core.Run(layout, mk(), core.Options{Threads: 1})
		if err != nil {
			t.Fatalf("%s/serial: %v", pname, err)
		}
		for _, threads := range []int{0, 2, 3, 4, 8} {
			t.Run(fmt.Sprintf("%s/threads-%d", pname, threads), func(t *testing.T) {
				layout := buildLayout(t, g, 2)
				par, err := core.Run(layout, mk(), core.Options{Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalOutputs(t, serial.Outputs, par.Outputs)
				if par.Iterations != serial.Iterations {
					t.Fatalf("%d iterations, serial %d", par.Iterations, serial.Iterations)
				}
			})
		}
	}
}
