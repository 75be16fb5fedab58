package main

import (
	"reflect"
	"testing"
)

func TestInputsRepeatForSeed(t *testing.T) {
	a, err := rmatGraph(10, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := rmatGraph(10, 4, 42)
	c, _ := rmatGraph(10, 4, 43)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different R-MAT graphs")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same R-MAT graph")
	}

	road := roadGraph(100)
	if !reflect.DeepEqual(weightedCopy(road, 5), weightedCopy(road, 5)) {
		t.Error("same seed, different weights")
	}
	if reflect.DeepEqual(weightedCopy(road, 5), weightedCopy(road, 6)) {
		t.Error("different seeds, same weights")
	}
	if road.Weighted || road.Edges[0].Weight != 0 {
		t.Error("weightedCopy changed its input")
	}

	if !reflect.DeepEqual(prefixSources(7, 6000, 4), prefixSources(7, 6000, 4)) {
		t.Error("same seed, different sources")
	}
	if !reflect.DeepEqual(activeSources(a, 7, 8), activeSources(a, 7, 8)) {
		t.Error("same seed, different serving sources")
	}

	s1, s2 := newMutationStream(9, 1000), newMutationStream(9, 1000)
	for i := 0; i < 3; i++ {
		if !reflect.DeepEqual(s1.next(), s2.next()) {
			t.Fatalf("batch %d differs for the same seed", i)
		}
	}
	if reflect.DeepEqual(newMutationStream(9, 1000).next(), newMutationStream(10, 1000).next()) {
		t.Error("different seeds draw the same batch")
	}
}

func TestInputShapes(t *testing.T) {
	road := roadGraph(6000)
	// A chain plus one shortcut every eight vertices.
	if want := 5999 + 749; road.NumEdges() != want {
		t.Errorf("road graph has %d edges, want %d", road.NumEdges(), want)
	}
	for _, s := range prefixSources(3, 6000, sparseSources) {
		if s >= 60 {
			t.Errorf("source %d outside the first 1%% of 6000 vertices", s)
		}
	}
	seen := map[uint32]bool{}
	for _, s := range prefixSources(3, 6000, sparseSources) {
		if seen[uint32(s)] {
			t.Errorf("source %d drawn twice", s)
		}
		seen[uint32(s)] = true
	}
	g, _ := rmatGraph(10, 4, 1)
	deg := g.OutDegrees()
	for _, s := range activeSources(g, 1, 8) {
		if deg[s] == 0 {
			t.Errorf("serving source %d has no out-edge", s)
		}
	}
	batch := newMutationStream(1, 1000).next()
	if len(batch) != mutationBatch {
		t.Errorf("batch of %d, want %d", len(batch), mutationBatch)
	}
	for _, m := range batch {
		if m.Src >= 1000 || m.Dst >= 1000 {
			t.Errorf("mutation %v out of range", m)
		}
	}
}
