package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeServer speaks the subset of the job API the generator uses. done
// decides, at poll time, whether job k (1-based, in submission order) of
// tenant token has finished.
type fakeServer struct {
	done func(token string, k int) bool

	mu        sync.Mutex
	submits   int
	mutations int
	jobs      map[string]fakeJob
}

type fakeJob struct {
	token string
	k     int
}

func newFakeServer(t *testing.T, done func(token string, k int) bool) (*fakeServer, *httptest.Server) {
	f := &fakeServer{done: done, jobs: make(map[string]fakeJob)}
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	return f, ts
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	token := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		f.submits++
		id := fmt.Sprintf("j%d", f.submits)
		k := 1
		for _, j := range f.jobs {
			if j.token == token {
				k++
			}
		}
		f.jobs[id] = fakeJob{token: token, k: k}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id})
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		j, ok := f.jobs[strings.TrimPrefix(r.URL.Path, "/v1/jobs/")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		state := "running"
		if f.done(j.token, j.k) {
			state = "done"
		}
		json.NewEncoder(w).Encode(map[string]string{"state": state})
	case r.Method == http.MethodPost && r.URL.Path == "/v1/graphs/g/edges":
		f.mutations++
		w.WriteHeader(http.StatusOK)
	default:
		http.Error(w, "unexpected request", http.StatusBadRequest)
	}
}

func (f *fakeServer) counts() (submits, mutations int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.submits, f.mutations
}

// afterDeadline reports whether now is safely past a run of d that starts
// no earlier than begin.
func afterDeadline(begin time.Time, d time.Duration) bool {
	return time.Since(begin) > d+100*time.Millisecond
}

// TestWindowExcludesDrain: one worker's first job finishes at once, its
// second only after the deadline. Only the first is a window completion;
// the second is reported as drained, and jobs/sec divides by the window.
func TestWindowExcludesDrain(t *testing.T) {
	const d = 300 * time.Millisecond
	begin := time.Now()
	_, ts := newFakeServer(t, func(_ string, k int) bool {
		return k == 1 || afterDeadline(begin, d)
	})
	rep, err := Run(context.Background(), Options{
		BaseURL: ts.URL, Graph: "g", Workers: 1,
		Duration: d, PollInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 1 || rep.DrainedJobs != 1 {
		t.Fatalf("jobs=%d drained=%d, want 1 and 1", rep.Jobs, rep.DrainedJobs)
	}
	if tr := rep.Tenants[0]; tr.Jobs != 1 || tr.Drained != 1 || tr.Share != 1 {
		t.Fatalf("tenant report %+v", tr)
	}
	if rep.DurationS != d.Seconds() {
		t.Fatalf("window %.3fs, want %.3fs", rep.DurationS, d.Seconds())
	}
	if rep.DrainS <= 0 {
		t.Fatalf("drain %.3fs, want > 0", rep.DrainS)
	}
	if want := 1 / d.Seconds(); math.Abs(rep.JobsPS-want) > 1e-9 {
		t.Fatalf("jobs/sec %.3f, want %.3f", rep.JobsPS, want)
	}
	// Latency still covers every completed job, drained ones included.
	if rep.P99ms < 100 {
		t.Fatalf("p99 %.1fms ignores the drained job", rep.P99ms)
	}
}

// TestSharesCountWindowOnly: tenant "slow" has a burst in flight for the
// whole window and sees it done only during the drain, so its share is 0
// even though it completes as many jobs overall as it ever submitted.
func TestSharesCountWindowOnly(t *testing.T) {
	const d = 300 * time.Millisecond
	begin := time.Now()
	_, ts := newFakeServer(t, func(token string, _ int) bool {
		return token == "fast" || afterDeadline(begin, d)
	})
	rep, err := Run(context.Background(), Options{
		BaseURL: ts.URL, Graph: "g",
		Tenants: []Tenant{
			{Name: "fast", Token: "fast", Workers: 1},
			{Name: "slow", Token: "slow", Workers: 1, Burst: 4},
		},
		Duration: d, PollInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]TenantReport{}
	for _, tr := range rep.Tenants {
		byName[tr.Name] = tr
	}
	fast, slow := byName["fast"], byName["slow"]
	if slow.Jobs != 0 || slow.Drained != 4 || slow.Share != 0 {
		t.Fatalf("slow tenant %+v, want 0 window jobs, 4 drained, share 0", slow)
	}
	if fast.Jobs == 0 || fast.Share != 1 || rep.MinShare != 0 {
		t.Fatalf("fast tenant %+v, min share %.2f", fast, rep.MinShare)
	}
	if rep.Jobs != fast.Jobs || rep.DrainedJobs != fast.Drained+4 {
		t.Fatalf("totals jobs=%d drained=%d disagree with tenants %+v", rep.Jobs, rep.DrainedJobs, rep.Tenants)
	}
}

// TestMutationCadenceIsRunWide: four workers whose jobs take longer than
// half the window each finish at most two operations — under a per-worker
// cadence of 3 none would ever mutate. The run-wide counter makes exactly
// every third operation of the run a mutation.
func TestMutationCadenceIsRunWide(t *testing.T) {
	const d = 150 * time.Millisecond
	var mu sync.Mutex
	first := map[int]time.Time{}
	f, ts := newFakeServer(t, func(_ string, k int) bool {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := first[k]; !ok {
			first[k] = time.Now()
		}
		return time.Since(first[k]) >= 100*time.Millisecond
	})
	rep, err := Run(context.Background(), Options{
		BaseURL: ts.URL, Graph: "g", Workers: 4,
		MutateEvery: 3, MutateBatch: 2,
		Duration: d, PollInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	submits, mutations := f.counts()
	if rep.Mutates == 0 {
		t.Fatal("no mutation batch ran")
	}
	if int(rep.Mutates) != mutations || mutations != (submits+mutations)/3 {
		t.Fatalf("%d mutations reported, %d received, %d submits: want every 3rd of %d operations",
			rep.Mutates, mutations, submits, submits+mutations)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors", rep.Errors)
	}
}

func TestPercentile(t *testing.T) {
	var hundred []float64
	for k := 100; k >= 1; k-- {
		hundred = append(hundred, float64(k))
	}
	for _, tc := range []struct {
		v    []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{3, 1, 2}, 0, 1},
		{[]float64{3, 1, 2}, 100, 3},
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{[]float64{10, 20}, 99, 20},
	} {
		if got := percentile(tc.v, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.v, tc.p, got, tc.want)
		}
	}
	if hundred[0] != 100 || hundred[99] != 1 {
		t.Fatal("percentile reordered its input")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Options{Graph: "g"}); err == nil {
		t.Fatal("missing BaseURL accepted")
	}
	if _, err := Run(context.Background(), Options{BaseURL: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("missing Graph accepted")
	}
}
