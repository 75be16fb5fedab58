package main

import (
	"encoding/json"
	"math"
	"testing"
)

func TestCheckTopFollowsServerRanking(t *testing.T) {
	inf := math.Inf(1)
	out := []float64{3, inf, 7, 7, math.NaN(), math.Inf(-1), 1, 2, 5, 4, 6, 0}
	entry := func(v uint32, raw string) topEntry { return topEntry{Vertex: v, Value: json.RawMessage(raw)} }
	// +Inf first, then finite values descending with the lower vertex
	// first among equals; -Inf and NaN rank last.
	want := []topEntry{
		entry(1, `"Infinity"`), entry(2, "7"), entry(3, "7"), entry(10, "6"), entry(8, "5"),
		entry(9, "4"), entry(0, "3"), entry(7, "2"), entry(6, "1"), entry(11, "0"),
	}
	if msg := checkTop(want, out); msg != "" {
		t.Fatalf("server ranking rejected: %s", msg)
	}
	swapped := append([]topEntry(nil), want...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if checkTop(swapped, out) == "" {
		t.Error("tie broken toward the higher vertex ID accepted")
	}
	if checkTop(want[:9], out) == "" {
		t.Error("short reply accepted")
	}
	wrong := append([]topEntry(nil), want...)
	wrong[3] = entry(10, "6.5")
	if checkTop(wrong, out) == "" {
		t.Error("wrong value accepted")
	}
}

func TestParseJSONFloat(t *testing.T) {
	for raw, want := range map[string]float64{"1.5": 1.5, `"Infinity"`: math.Inf(1), `"-Infinity"`: math.Inf(-1), "0": 0} {
		if got, err := parseJSONFloat(json.RawMessage(raw)); err != nil || got != want {
			t.Errorf("%s: %v, %v", raw, got, err)
		}
	}
	if got, err := parseJSONFloat(json.RawMessage(`"NaN"`)); err != nil || !math.IsNaN(got) {
		t.Errorf("NaN: %v, %v", got, err)
	}
	if _, err := parseJSONFloat(json.RawMessage(`"x"`)); err == nil {
		t.Error("garbage accepted")
	}
}
