package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
func nearestRank(n int, p float64) int {
	// The epsilon keeps p/100 × n from rounding up past an exact rank
	// (99.9% of 10,000 must be rank 9,990, not 9,991).
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailSupported reports whether at least ten of n samples lie beyond the
// p-th percentile, the condition for reporting that percentile at all.
func tailSupported(n int, p float64) bool {
	return n > 0 && n-nearestRank(n, p) >= 10
}

// highestTail returns the highest of p90, p99 and p99.9 that tailSupported
// allows for n samples, or 0 when none is.
func highestTail(n int) float64 {
	best := 0.0
	for _, p := range []float64{90, 99, 99.9} {
		if tailSupported(n, p) {
			best = p
		}
	}
	return best
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// kindMedian is the mean over operation kinds of each kind's median. A
// workload that alternates kinds of different cost has a pooled median
// that sits between two clusters and jumps with the count of each kind in
// the window; the per-kind medians do not.
func kindMedian(byKind map[string][]float64) float64 {
	if len(byKind) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, xs := range byKind {
		sum += median(xs)
	}
	return sum / float64(len(byKind))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opResult is the outcome of one operation as the client saw it. Zero
// fields mean "not applicable": Status 0 for in-process calls, JobState ""
// for mutations.
type opResult struct {
	Err      error  // engine or transport error
	Status   int    // HTTP status of the call that decided the outcome
	JobState string // terminal job state
	Mismatch string // non-empty when the output failed its check
}

// failure returns why the operation failed, or "" when it succeeded. An
// operation fails at most once, whatever went wrong with it; a wrong output
// is reported only for an operation that otherwise succeeded.
func (r opResult) failure() string {
	switch {
	case r.Err != nil:
		return "error"
	case r.Status != 0 && (r.Status < 200 || r.Status > 299):
		if r.Status == http.StatusTooManyRequests {
			return "http 429"
		}
		return fmt.Sprintf("http %dxx", r.Status/100)
	case r.JobState != "" && r.JobState != "done":
		return "job " + r.JobState
	case r.Mismatch != "":
		return "mismatch"
	}
	return ""
}

// ledger counts attempted and failed operations and why they failed.
// Wrong outputs also clear correct, because a wrong answer is a defect in
// the program, not a refused request.
type ledger struct {
	attempted int
	failed    int
	reasons   map[string]int
	examples  []string
	correct   bool
}

func newLedger() *ledger { return &ledger{reasons: map[string]int{}, correct: true} }

// add records one operation's outcome.
func (l *ledger) add(r opResult) {
	l.attempted++
	why := r.failure()
	if why == "" {
		return
	}
	l.failed++
	l.reasons[why]++
	if why == "mismatch" {
		l.correct = false
	}
	if len(l.examples) < 5 {
		detail := r.Mismatch
		if r.Err != nil {
			detail = r.Err.Error()
		}
		l.examples = append(l.examples, why+": "+detail)
	}
}

// fail records a correctness failure that is not one operation's output,
// such as a counter that should have repeated exactly and did not.
func (l *ledger) fail(detail string) {
	l.correct = false
	l.reasons["check"]++
	if len(l.examples) < 5 {
		l.examples = append(l.examples, "check: "+detail)
	}
}

func (l *ledger) failedRatio() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

// window is one measurement interval. Operations that complete after the
// deadline are drained: checked and counted as attempted, but left out of
// every rate and latency.
type window struct {
	start    time.Time
	deadline time.Time
}

func newWindow(d time.Duration) window {
	now := time.Now()
	return window{start: now, deadline: now.Add(d)}
}

func (w window) open() bool { return time.Now().Before(w.deadline) }

func (w window) inside(end time.Time) bool { return !end.After(w.deadline) }

// rate is n operations per second of the window up to the last of them,
// so a window's tail after its last completion does not quantise it.
func rate(n int, w window, last time.Time) float64 {
	if n == 0 || !last.After(w.start) {
		return 0
	}
	return float64(n) / last.Sub(w.start).Seconds()
}
