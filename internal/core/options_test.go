package core_test

import (
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
)

func TestOnIterationHook(t *testing.T) {
	g := gen.Chain(40)
	layout := buildLayout(t, g, 2)
	var seen []core.IterStat
	res, err := core.Run(layout, &algorithms.BFS{Source: 0}, core.Options{
		OnIteration: func(st core.IterStat) { seen = append(seen, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != res.Iterations {
		t.Fatalf("hook fired %d times for %d iterations", len(seen), res.Iterations)
	}
	for i, st := range seen {
		if st.Index != i {
			t.Fatalf("hook %d got index %d", i, st.Index)
		}
	}
}

func TestBufferPolicyOption(t *testing.T) {
	g, err := gen.RMAT(8, 10, gen.Graph500, 9)
	if err != nil {
		t.Fatal(err)
	}
	prog := func() core.Program { return &algorithms.PageRank{Iterations: 6} }
	want, _ := core.RunReference(g, prog(), 0)
	for _, policy := range []buffer.Policy{buffer.PriorityPolicy, buffer.FIFOPolicy} {
		layout := buildLayout(t, g, 4)
		res, err := core.Run(layout, prog(), core.Options{
			ForceModel:   core.ForceFull,
			BufferBytes:  1 << 16, // small enough to force evictions
			BufferPolicy: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		compareOutputs(t, "policy", res.Outputs, want, 1e-9)
	}
}
