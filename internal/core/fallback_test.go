package core_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// Exact Stats.Fallbacks accounting: when a prefetched block fails with a
// transient fault, the pass degrades and every consumed request from the
// failing one onward — including the failing request itself — is loaded
// synchronously and counted exactly once. These tests pin the counts for a
// degradation on the very first request of a pass and mid-pass, on the
// FCIU/full, SCIU and async streamed consumption paths.

// nonEmptyColumnMajor returns the non-empty grid cells in FCIU/full
// consumption order (j outer, i inner) — the pass's prefetch request list
// when nothing is streamed or buffer-resident.
func nonEmptyColumnMajor(m *partition.Manifest) [][2]int {
	var cells [][2]int
	for j := 0; j < m.P; j++ {
		for i := 0; i < m.P; i++ {
			if m.SubBlockEdges(i, j) > 0 {
				cells = append(cells, [2]int{i, j})
			}
		}
	}
	return cells
}

// nonEmptyRowMajor returns the non-empty cells in SCIU consumption order
// (i outer, j inner); with an always-active program every row is active, so
// this is SCIU's full request list.
func nonEmptyRowMajor(m *partition.Manifest) [][2]int {
	var cells [][2]int
	for i := 0; i < m.P; i++ {
		for j := 0; j < m.P; j++ {
			if m.SubBlockEdges(i, j) > 0 {
				cells = append(cells, [2]int{i, j})
			}
		}
	}
	return cells
}

// failOnce installs a fault injector that makes the first attempted
// operation of kind op on file name fail with a transient error; every
// other access (including the synchronous reload of the same block)
// succeeds.
func failOnce(l *partition.Layout, op, name string) {
	var tripped atomic.Bool
	l.Dev.SetFaultInjector(func(gotOp, gotName string) error {
		if gotOp == op && gotName == name && tripped.CompareAndSwap(false, true) {
			return storage.Transient(errors.New("transient sector fault"))
		}
		return nil
	})
}

func TestFullPassFallbackCountsExact(t *testing.T) {
	for _, tc := range []struct {
		name    string
		failIdx int // index into the column-major request list
	}{
		{"first-request", 0},
		{"mid-pass", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := faultLayout(t)
			cells := nonEmptyColumnMajor(&l.Meta)
			if len(cells) <= tc.failIdx+1 {
				t.Fatalf("layout too sparse: %d non-empty cells", len(cells))
			}
			target := cells[tc.failIdx]
			failOnce(l, "read", partition.SubBlockName(target[0], target[1]))

			// Two full-single iterations: only the first degrades (the
			// injector fires once), so the expected count is the first
			// pass's requests from failIdx onward.
			res, err := core.Run(l, &algorithms.PageRank{Iterations: 2}, core.Options{
				ForceModel:            core.ForceFull,
				DisableCrossIteration: true,
			})
			if err != nil {
				t.Fatalf("degraded run failed: %v", err)
			}
			want := len(cells) - tc.failIdx
			if res.Pipeline.Fallbacks != want {
				t.Fatalf("Fallbacks = %d, want exactly %d (degrade at request %d of %d)",
					res.Pipeline.Fallbacks, want, tc.failIdx, len(cells))
			}
		})
	}
}

// TestFCIUFirstRequestFallbackCountExact drives the degradation through the
// real FCIU pass pair (fciu-1 then fciu-2) with the failure on the very
// first prefetched request of the run.
func TestFCIUFirstRequestFallbackCountExact(t *testing.T) {
	l := faultLayout(t)
	cells := nonEmptyColumnMajor(&l.Meta)
	target := cells[0]
	failOnce(l, "read", partition.SubBlockName(target[0], target[1]))

	res, err := core.Run(l, &algorithms.PageRank{Iterations: 4}, core.Options{
		ForceModel: core.ForceFull,
	})
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	// The fciu-1 pass prefetches every non-empty cell (nothing is resident
	// at the start of the run) and degrades on its first request, so all of
	// them fall back; every later pass runs fault-free.
	if res.Pipeline.Fallbacks != len(cells) {
		t.Fatalf("Fallbacks = %d, want exactly %d", res.Pipeline.Fallbacks, len(cells))
	}
}

func TestSCIUFallbackCountsExact(t *testing.T) {
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		t.Run(codec.String(), func(t *testing.T) {
			for _, tc := range []struct {
				name    string
				failIdx int
			}{
				{"first-request", 0},
				{"mid-pass", 2},
			} {
				t.Run(tc.name, func(t *testing.T) {
					l := faultLayoutCodec(t, codec)
					cells := nonEmptyRowMajor(&l.Meta)
					if len(cells) <= tc.failIdx+1 {
						t.Fatalf("layout too sparse: %d non-empty cells", len(cells))
					}
					target := cells[tc.failIdx]
					// Selective loads read through AutoReadAt ("readat").
					failOnce(l, "readat", partition.SubBlockName(target[0], target[1]))

					res, err := core.Run(l, &algorithms.PageRank{Iterations: 2}, core.Options{
						ForceModel: core.ForceOnDemand,
					})
					if err != nil {
						t.Fatalf("degraded run failed: %v", err)
					}
					want := len(cells) - tc.failIdx
					if res.Pipeline.Fallbacks != want {
						t.Fatalf("Fallbacks = %d, want exactly %d (degrade at request %d of %d)",
							res.Pipeline.Fallbacks, want, tc.failIdx, len(cells))
					}
				})
			}
		})
	}
}

// TestAsyncStreamedFallbackCountsExact pins the count on the async engine's
// streamed path. Each scheduler step plans its row's non-empty cells in
// column order; the injector fails the first full read of one cell of row
// 0, so the step that first streams row 0 degrades at that cell's position
// and falls back for it and every later cell of the row. Selective steps
// read through "readat" and never trip the injector.
func TestAsyncStreamedFallbackCountsExact(t *testing.T) {
	for _, tc := range []struct {
		name    string
		failIdx int // index into row 0's non-empty cells
	}{
		{"first-request", 0},
		{"mid-row", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := faultLayout(t)
			var row []int
			for j := 0; j < l.Meta.P; j++ {
				if l.Meta.SubBlockEdges(0, j) > 0 {
					row = append(row, j)
				}
			}
			if len(row) <= tc.failIdx+1 {
				t.Fatalf("row 0 too sparse: %d non-empty cells", len(row))
			}
			failOnce(l, "read", partition.SubBlockName(0, row[tc.failIdx]))

			res, err := core.Run(l, &algorithms.PageRankDelta{Iterations: 20, Tolerance: 1e-6},
				core.Options{Async: true})
			if err != nil {
				t.Fatalf("degraded run failed: %v", err)
			}
			want := len(row) - tc.failIdx
			if res.Pipeline.Fallbacks != want {
				t.Fatalf("Fallbacks = %d, want exactly %d (degrade at cell %d of row 0's %d)",
					res.Pipeline.Fallbacks, want, tc.failIdx, len(row))
			}
		})
	}
}

// TestFullSingleEmptyCellsSkipSharedCache: a full-single pass must not send
// empty cells through the cross-job shared cache, where each would count a
// miss and occupy an entry for a block that costs no I/O. A chain over P=4
// has 7 non-empty cells (4 diagonal, 3 just above it) out of 16.
func TestFullSingleEmptyCellsSkipSharedCache(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shared func(int64) *buffer.Shared
	}{
		{"raw", buffer.NewShared},
		{"compressed", buffer.NewSharedCompressed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := buildLayout(t, gen.Chain(256), 4)
			nonEmpty := int64(len(nonEmptyColumnMajor(&l.Meta)))
			res, err := core.Run(l, &algorithms.PageRank{Iterations: 1}, core.Options{
				ForceModel:   core.ForceFull,
				SharedBlocks: tc.shared(l.Meta.EdgeBytesTotal() * 4),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.SharedMisses != nonEmpty || res.SharedHits != 0 {
				t.Fatalf("cold shared cache: %d misses, %d hits; want %d misses (one per non-empty cell), 0 hits",
					res.SharedMisses, res.SharedHits, nonEmpty)
			}
		})
	}
}
