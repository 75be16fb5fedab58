package main

import (
	"errors"
	"math"
	"net/http"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50} // the textbook nearest-rank example
	for _, tc := range []struct {
		p    float64
		want float64
	}{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%g = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Input order does not matter and the input is left alone.
	ys := []float64{50, 15, 40, 20, 35}
	if got := percentile(ys, 50); got != 35 {
		t.Errorf("unsorted p50 = %v, want 35", got)
	}
	if ys[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	// An even count takes the lower middle sample.
	if got := median([]float64{1, 2, 3, 4}); got != 2 {
		t.Errorf("median of 1..4 = %v, want 2", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false}, // rank 90: 9 beyond
		{100, 90, true}, // rank 90: 10 beyond
		{109, 90, true},
		{999, 99, false},
		{1000, 99, true},
		{20, 50, true}, // rank 10: 10 beyond
		{19, 50, false},
		{0, 50, false},
	} {
		if got := tailSupported(tc.n, tc.p); got != tc.want {
			t.Errorf("tailSupported(%d, p%g) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{50, 0}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := highestTail(tc.n); got != tc.want {
			t.Errorf("highestTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestKindMedianAveragesKinds(t *testing.T) {
	// Two kinds of different cost: the pooled median is whichever cluster
	// holds the middle sample; the per-kind figure does not move with the
	// count of each kind.
	a := map[string][]float64{"pr": {100, 101, 102}, "prd": {200, 201}}
	b := map[string][]float64{"pr": {100, 101}, "prd": {200, 201, 202}}
	if ka, kb := kindMedian(a), kindMedian(b); ka != (101+200)/2.0 || kb != (100+201)/2.0 {
		t.Errorf("kindMedian = %v, %v", ka, kb)
	}
}

func TestFailureAccounting(t *testing.T) {
	led := newLedger()
	led.add(opResult{Status: http.StatusAccepted, JobState: "done"})
	led.add(opResult{Status: http.StatusOK})
	led.add(opResult{}) // an in-process call that succeeded
	if led.attempted != 3 || led.failed != 0 || !led.correct {
		t.Fatalf("successes: %+v", led)
	}
	failures := []struct {
		r      opResult
		reason string
	}{
		{opResult{Status: http.StatusTooManyRequests}, "http 429"},
		{opResult{Status: http.StatusServiceUnavailable}, "http 5xx"},
		{opResult{Status: http.StatusAccepted, JobState: "failed"}, "job failed"},
		{opResult{Status: http.StatusOK, Mismatch: "vertex 3"}, "mismatch"},
		{opResult{Err: errors.New("engine")}, "error"},
		// A refused request whose output was also judged wrong still
		// counts once, as refused.
		{opResult{Status: http.StatusTooManyRequests, Mismatch: "no output"}, "http 429"},
	}
	for _, f := range failures {
		if got := f.r.failure(); got != f.reason {
			t.Errorf("%+v: failure %q, want %q", f.r, got, f.reason)
		}
		led.add(f.r)
	}
	if led.attempted != 3+len(failures) || led.failed != len(failures) {
		t.Errorf("attempted %d failed %d, want %d and %d", led.attempted, led.failed, 3+len(failures), len(failures))
	}
	if led.reasons["http 429"] != 2 || led.reasons["http 5xx"] != 1 || led.reasons["job failed"] != 1 || led.reasons["mismatch"] != 1 {
		t.Errorf("reasons %v", led.reasons)
	}
	if led.correct {
		t.Error("a wrong output must clear correct")
	}
	if got, want := led.failedRatio(), float64(len(failures))/float64(3+len(failures)); got != want {
		t.Errorf("failedRatio %v, want %v", got, want)
	}

	// Refusals alone do not make the run incorrect; a failed check does.
	refused := newLedger()
	refused.add(opResult{Status: http.StatusTooManyRequests})
	if !refused.correct {
		t.Error("a 429 is a failed operation, not a wrong output")
	}
	refused.fail("counter changed")
	if refused.correct || refused.failed != 1 {
		t.Errorf("fail: correct %v failed %d", refused.correct, refused.failed)
	}
}

func TestCompareOutputs(t *testing.T) {
	inf := math.Inf(1)
	if msg := compareOutputs([]float64{1, inf}, []float64{1, inf}, true); msg != "" {
		t.Errorf("equal exact outputs: %s", msg)
	}
	if msg := compareOutputs([]float64{1, 2.0000000001}, []float64{1, 2}, true); msg == "" {
		t.Error("exact comparison accepted a difference")
	}
	if msg := compareOutputs([]float64{1, 2 * (1 + 1e-12)}, []float64{1, 2}, false); msg != "" {
		t.Errorf("tolerant comparison: %s", msg)
	}
	if msg := compareOutputs([]float64{1, 2 * (1 + 1e-6)}, []float64{1, 2}, false); msg == "" {
		t.Error("tolerant comparison accepted a 1e-6 difference")
	}
	if msg := compareOutputs([]float64{1}, []float64{1, 2}, true); msg == "" {
		t.Error("length mismatch accepted")
	}
}
