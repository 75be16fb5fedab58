package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/graphsd/graphsd/internal/pipeline"
	"github.com/graphsd/graphsd/internal/storage"
)

// fakeFetch is a blockSource fetch function over a virtual grid: a cell's
// value is 10*I+J, and the first attempt at cell fail (when set) fails
// with a transient fault. It records how often each cell was fetched.
type fakeFetch struct {
	fail *[2]int

	mu    sync.Mutex
	calls map[[2]int]int
}

func (f *fakeFetch) fetch(r pipeline.Request) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := [2]int{r.I, r.J}
	if f.calls == nil {
		f.calls = make(map[[2]int]int)
	}
	f.calls[c]++
	if f.fail != nil && *f.fail == c && f.calls[c] == 1 {
		return 0, storage.Transient(errors.New("transient sector fault"))
	}
	return 10*r.I + r.J, nil
}

func (f *fakeFetch) count(i, j int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[[2]int{i, j}]
}

func sourcePlan(cells ...[2]int) []pipeline.Request {
	plan := make([]pipeline.Request, len(cells))
	for k, c := range cells {
		plan[k] = pipeline.Request{I: c[0], J: c[1], Bytes: 1}
	}
	return plan
}

// drainSource gets every cell in order, checking each value.
func drainSource(t *testing.T, s *blockSource[int], cells ...[2]int) {
	t.Helper()
	for _, c := range cells {
		v, err := s.get(c[0], c[1])
		if err != nil {
			t.Fatalf("get%v: %v", c, err)
		}
		if v != 10*c[0]+c[1] {
			t.Fatalf("get%v = %d, want %d", c, v, 10*c[0]+c[1])
		}
	}
}

func sourceEngine(prefetchDepth int) *Engine {
	return &Engine{ctx: context.Background(), opts: Options{PrefetchDepth: prefetchDepth}}
}

var sourceCells = [][2]int{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}}

func TestBlockSourcePipeliningOff(t *testing.T) {
	e := sourceEngine(-1)
	f := &fakeFetch{}
	s := newBlockSource(e, sourcePlan(sourceCells...), f.fetch)
	if s.pf != nil {
		t.Fatal("pipeline started with prefetching disabled")
	}
	drainSource(t, s, sourceCells...)
	s.close()
	for _, c := range sourceCells {
		if n := f.count(c[0], c[1]); n != 1 {
			t.Fatalf("cell %v fetched %d times, want 1", c, n)
		}
	}
	if e.plStats.Blocks != 0 || e.plStats.Fallbacks != 0 {
		t.Fatalf("synchronous source reported pipeline stats %+v", e.plStats)
	}

	// A one-cell plan has nothing to overlap: no pipeline either.
	if s := newBlockSource(sourceEngine(0), sourcePlan(sourceCells[0]), f.fetch); s.pf != nil {
		t.Fatal("pipeline started for a one-cell plan")
	}
}

func TestBlockSourceUnplannedGetNotCounted(t *testing.T) {
	e := sourceEngine(0)
	f := &fakeFetch{}
	s := newBlockSource(e, sourcePlan(sourceCells...), f.fetch)
	drainSource(t, s, sourceCells[0], [2]int{3, 3}, sourceCells[1])
	drainSource(t, s, [2]int{2, 2})
	drainSource(t, s, sourceCells[2:]...)
	s.close()
	if e.plStats.Fallbacks != 0 {
		t.Fatalf("Fallbacks = %d for unplanned gets, want 0", e.plStats.Fallbacks)
	}
	if e.plStats.Blocks != len(sourceCells) {
		t.Fatalf("pipeline delivered %d blocks, want %d", e.plStats.Blocks, len(sourceCells))
	}
	if f.count(3, 3) != 1 || f.count(2, 2) != 1 {
		t.Fatal("unplanned cells not fetched exactly once")
	}
}

func TestBlockSourceDegradeCounts(t *testing.T) {
	for _, tc := range []struct {
		name    string
		failIdx int
	}{
		{"first-request", 0},
		{"mid-plan", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sourceEngine(0)
			fail := sourceCells[tc.failIdx]
			f := &fakeFetch{fail: &fail}
			s := newBlockSource(e, sourcePlan(sourceCells...), f.fetch)
			drainSource(t, s, sourceCells...)
			// An unplanned get after the degrade is still not a fallback.
			drainSource(t, s, [2]int{4, 4})
			s.close()
			want := len(sourceCells) - tc.failIdx
			if e.plStats.Fallbacks != want {
				t.Fatalf("Fallbacks = %d, want exactly %d", e.plStats.Fallbacks, want)
			}
			if e.plStats.Blocks != tc.failIdx {
				t.Fatalf("pipeline delivered %d blocks, want %d before the fault", e.plStats.Blocks, tc.failIdx)
			}
			if n := f.count(fail[0], fail[1]); n != 2 {
				t.Fatalf("failing cell fetched %d times, want 2 (fault + synchronous reload)", n)
			}
		})
	}
}
