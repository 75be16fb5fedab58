package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/jobs"
	"github.com/graphsd/graphsd/internal/server"
	"github.com/graphsd/graphsd/internal/storage"
)

const (
	graphName = "g"
	// pollInterval is the job client's wait between status polls.
	pollInterval = 2 * time.Millisecond
	// serveMaxIters bounds every serve-mixed job.
	serveMaxIters = 4
	// memtableBytes seals the memtable often enough that every window
	// sees several seals and compactions.
	memtableBytes = 256 << 10
	topK          = 10
)

// serveEnv is an in-process job server behind a loopback listener,
// serving one mutable, journaled, delta-coded graph with the default
// shared cache.
type serveEnv struct {
	g       *graph.Graph // the graph as generated, before any mutation
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	sources []graph.VertexID
}

func setupServe(seed int64, dir string, tr *tracer) (*serveEnv, error) {
	g, err := rmatGraph(serveScale, serveEdgeFactor, seed)
	if err != nil {
		return nil, err
	}
	layoutDir := filepath.Join(dir, "layout")
	_, _, err = build(tr, layoutDir, g)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Graphs: []server.GraphConfig{{
			Name: graphName, Dir: layoutDir, Profile: storage.ScaledHDD,
			Mutable: true, MemtableBytes: memtableBytes,
		}},
		JournalDir: filepath.Join(dir, "journal"),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		return nil, err
	}
	e := &serveEnv{g: g, srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), sources: activeSources(g, seed, serveSources)}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close stops the listener, then the server, and waits for both.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := e.srv.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// counters snapshots the server-side counters the per-layer metrics are
// deltas of.
type serverCounters struct {
	io      storage.Snapshot
	shared  buffer.SharedStats
	store   delta.Stats
	journal int64
}

func (e *serveEnv) counters() serverCounters {
	shared, dev, _ := e.srv.Graph(graphName)
	return serverCounters{
		io:      dev.Stats(),
		shared:  shared.Stats(),
		store:   e.srv.Store(graphName).Stats(),
		journal: e.srv.Journal().Stats().Records,
	}
}

// newClient is one client connection: the benchmark never opens more
// connections than it has client goroutines.
func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// call sends one request and, on a 2xx reply, decodes its JSON body into
// out (when out is non-nil). It always reads the body to the end, so the
// connection is reused.
func call(c *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled" || state == "expired"
}

// jobSample is one serving job as the client saw it.
type jobSample struct {
	req        jobs.Request
	start, end time.Time // submit sent; terminal state observed
	inside     bool
	polls      int // polls that found the job unfinished
	submitMs   float64
	pollMs     []float64
	resultMs   float64
	simMs      float64 // the engine's Result.ExecTime, filled in by the check
	status     jobs.Status
	top        []topEntry
	res        opResult
}

type topEntry struct {
	Vertex uint32          `json:"vertex"`
	Value  json.RawMessage `json:"value"`
}

// job runs one job over HTTP: submit, poll until terminal, fetch top-k.
func (e *serveEnv) job(c *http.Client, tr *tracer, w window, req jobs.Request) jobSample {
	s := jobSample{req: req}
	root := tr.begin("job", 0, 0)
	defer tr.end(root)
	finish := func(r opResult) jobSample {
		s.end = time.Now()
		s.inside = w.inside(s.end)
		s.res = r
		return s
	}
	body, _ := json.Marshal(req) // plain fields only: cannot fail
	sp := tr.begin("http.submit", root.id, root.job)
	s.start = time.Now()
	code, err := call(c, http.MethodPost, e.base+"/v1/jobs", body, &s.status)
	s.submitMs = ms(time.Since(s.start))
	tr.end(sp)
	if err != nil || code != http.StatusAccepted {
		return finish(opResult{Err: err, Status: code})
	}
	for !terminal(s.status.State) {
		time.Sleep(pollInterval)
		sp := tr.begin("http.poll", root.id, root.job)
		t0 := time.Now()
		code, err = call(c, http.MethodGet, e.base+"/v1/jobs/"+s.status.ID, nil, &s.status)
		s.pollMs = append(s.pollMs, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil || code != http.StatusOK {
			return finish(opResult{Err: err, Status: code})
		}
		if !terminal(s.status.State) {
			s.polls++
		}
	}
	s = finish(opResult{Status: http.StatusOK, JobState: s.status.State})
	if s.status.State != "done" {
		return s
	}
	var payload struct {
		Top []topEntry `json:"top"`
	}
	sp = tr.begin("http.result", root.id, root.job)
	t0 := time.Now()
	s.res.Status, s.res.Err = call(c, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%s/result?top=%d", e.base, s.status.ID, topK), nil, &payload)
	s.resultMs = ms(time.Since(t0))
	tr.end(sp)
	s.top = payload.Top
	return s
}

// mutSample is one mutation batch as the client saw it.
type mutSample struct {
	send, ack time.Time
	inside    bool
	batch     []delta.Mutation
	layers    int
	res       opResult
}

// applied reports whether the server may have applied the batch: it
// acknowledged it, or the reply was lost.
func (m mutSample) applied() bool { return m.res.Err != nil || m.res.Status == http.StatusOK }

type mutationReq struct {
	Op  string `json:"op"`
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
}

// mutate sends one insert batch.
func (e *serveEnv) mutate(c *http.Client, tr *tracer, w window, batch []delta.Mutation) mutSample {
	req := struct {
		Mutations []mutationReq `json:"mutations"`
	}{make([]mutationReq, len(batch))}
	for i, m := range batch {
		req.Mutations[i] = mutationReq{Op: "insert", Src: uint32(m.Src), Dst: uint32(m.Dst)}
	}
	body, _ := json.Marshal(req) // plain fields only: cannot fail
	var reply struct {
		Accepted int `json:"accepted"`
		Layers   int `json:"delta_layers"`
	}
	sp := tr.begin("http.mutate", 0, 0)
	s := mutSample{send: time.Now(), batch: batch}
	code, err := call(c, http.MethodPost, e.base+"/v1/graphs/"+graphName+"/edges", body, &reply)
	s.ack = time.Now()
	tr.end(sp)
	s.inside = w.inside(s.ack)
	s.layers = reply.Layers
	s.res = opResult{Err: err, Status: code}
	if err == nil && code == http.StatusOK && reply.Accepted != len(batch) {
		s.res.Mismatch = fmt.Sprintf("accepted %d of %d mutations", reply.Accepted, len(batch))
	}
	return s
}

// writer is one closed-loop mutation client.
func (e *serveEnv) writer(tr *tracer, w window, stream *mutationStream) []mutSample {
	c := newClient()
	defer c.CloseIdleConnections()
	var out []mutSample
	for w.open() {
		out = append(out, e.mutate(c, tr, w, stream.next()))
	}
	return out
}

// serveAlgorithms is the serve-mixed job client's cycle.
var serveAlgorithms = []string{"pr", "bfs", "cc"}

// request is the i-th job of the serve-mixed job client.
func (e *serveEnv) request(i int) jobs.Request {
	req := jobs.Request{Graph: graphName, Algorithm: serveAlgorithms[i%len(serveAlgorithms)], MaxIterations: serveMaxIters}
	if req.Algorithm == "bfs" {
		req.Source = uint32(e.sources[(i/len(serveAlgorithms))%len(e.sources)])
	}
	return req
}

// jobClient is the closed-loop job client of serve-mixed.
func (e *serveEnv) jobClient(tr *tracer, w window) []jobSample {
	c := newClient()
	defer c.CloseIdleConnections()
	var out []jobSample
	for i := 0; w.open(); i++ {
		out = append(out, e.job(c, tr, w, e.request(i)))
	}
	return out
}

// serveWindow is what one measurement window on a server produced.
type serveWindow struct {
	w             window
	jobs          []jobSample
	muts          []mutSample
	before, after serverCounters
	peakMiB       float64
}

// measureServe runs the job client and the writer concurrently for one
// window.
func (e *serveEnv) measureServe(tr *tracer, d time.Duration, seed int64) serveWindow {
	_, dev, _ := e.srv.Graph(graphName)
	tr.attach(dev)
	defer dev.SetTracer(nil)
	sw := serveWindow{before: e.counters(), w: newWindow(d)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sw.muts = e.writer(tr, sw.w, newMutationStream(seed, e.g.NumVertices))
	}()
	sw.jobs = e.jobClient(tr, sw.w)
	<-done
	sw.after = e.counters()
	return sw
}

// serveSummary is a window's in-window job and mutation samples.
type serveSummary struct {
	jobMs, ackMs       []float64
	jobMsByKind        map[string][]float64
	simMsByKind        map[string][]float64
	jobsIn, batchesIn  int
	lastJob, lastBatch time.Time
	drained, rejected  int
}

func summarize(sw serveWindow) serveSummary {
	s := serveSummary{jobMsByKind: map[string][]float64{}, simMsByKind: map[string][]float64{}}
	for _, j := range sw.jobs {
		if j.res.Status == http.StatusTooManyRequests {
			s.rejected++
		}
		if !j.inside {
			s.drained++
			continue
		}
		if j.res.failure() == "" {
			s.jobMs = append(s.jobMs, ms(j.end.Sub(j.start)))
			s.jobMsByKind[j.req.Algorithm] = append(s.jobMsByKind[j.req.Algorithm], ms(j.end.Sub(j.start)))
			s.simMsByKind[j.req.Algorithm] = append(s.simMsByKind[j.req.Algorithm], j.simMs)
			s.jobsIn++
			if j.end.After(s.lastJob) {
				s.lastJob = j.end
			}
		}
	}
	for _, m := range sw.muts {
		if m.res.Status == http.StatusTooManyRequests {
			s.rejected++
		}
		if !m.inside {
			s.drained++
			continue
		}
		if m.res.failure() == "" {
			s.ackMs = append(s.ackMs, ms(m.ack.Sub(m.send)))
			s.batchesIn++
			if m.ack.After(s.lastBatch) {
				s.lastBatch = m.ack
			}
		}
	}
	return s
}

// runServeMixed sets the server up, measures the untraced window for the
// end-to-end metrics and, when traced, a window on a fresh server with the
// same inputs for the per-layer metrics.
func runServeMixed(c *runCtx) error {
	env, err := setupMedian(c, func(dir string) (*serveEnv, error) { return setupServe(c.seed, dir, c.tr) },
		func(e *serveEnv) error { return e.close() })
	if err != nil {
		return err
	}
	sw, err := c.measureWindow(env, nil)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	s := summarize(sw)
	io := sw.after.io.Sub(sw.before.io)
	c.note("%-22s %.4f 1/s (%d jobs, R-MAT scale %d)", "jobs_per_s", rate(s.jobsIn, sw.w, s.lastJob), s.jobsIn, serveScale)
	for _, k := range sortedKeys(s.jobMsByKind) {
		c.sample("job_ms_p50 "+k, s.jobMsByKind[k], 50, "ms")
	}
	c.sample("job_ms_p50 pooled", s.jobMs, 50, "ms")
	c.sample("job_ms_p90", s.jobMs, 90, "ms")
	c.tail("job_ms_tail", s.jobMs, "ms")
	c.note("%-22s %.4f 1/s (%d batches of %d)", "mutations_per_s", rate(s.batchesIn, sw.w, s.lastBatch)*mutationBatch, s.batchesIn, mutationBatch)
	c.sample("mutate_ack_ms_p50", s.ackMs, 50, "ms")
	c.sample("mutate_ack_ms_p99", s.ackMs, 99, "ms")
	c.tail("mutate_ack_ms_tail", s.ackMs, "ms")
	c.note("%-22s %d (in flight at the deadline, checked but not timed)", "drained_ops", s.drained)
	c.note("%-22s %d", "rejected_429", s.rejected)
	st := sw.after.store
	c.note("%-22s seals=%d compactions=%d layers=%d", "delta", st.Seals-sw.before.store.Seals,
		st.Generation-sw.before.store.Generation, st.Layers)
	c.finish(rate(s.jobsIn, sw.w, s.lastJob), kindMedian(s.jobMsByKind), kindMedian(s.simMsByKind),
		ratio(float64(io.ReadBytes()), float64(s.jobsIn)), s.jobsIn, sw.peakMiB)
	if !c.traced {
		return nil
	}
	tenv, err := setupServe(c.seed, filepath.Join(c.dir, "traced"), c.tr)
	if err != nil {
		return err
	}
	tw, err := c.measureWindow(tenv, c.tr)
	if err == nil {
		c.serveLayers(tenv, tw, c.e2e["job_ms_p50"].Value)
	}
	if cerr := tenv.close(); err == nil {
		err = cerr
	}
	return err
}

// measureWindow warms the server up, measures one window, checks every
// output, and then verifies the final graph with a forced compaction and
// a CC job.
func (c *runCtx) measureWindow(env *serveEnv, tr *tracer) (serveWindow, error) {
	// One job of each kind fills the shared cache; no mutation has landed
	// yet, so each is checked against the base graph.
	wc := newClient()
	for i := range serveAlgorithms {
		j := env.job(wc, nil, newWindow(time.Hour), env.request(i))
		if j.res.failure() == "" {
			j.res.Mismatch = env.checkJob(j, nil)
		}
		c.led.add(j.res)
	}
	wc.CloseIdleConnections()

	resetPeakRSS()
	sw := env.measureServe(tr, c.seconds, c.seed)
	sw.peakMiB = peakRSSMiB()
	for _, m := range sw.muts {
		c.led.add(m.res)
	}
	for i := range sw.jobs {
		j := &sw.jobs[i]
		if j.res.failure() == "" {
			j.res.Mismatch = env.checkJob(*j, sw.muts)
			if job, ok := env.srv.Scheduler().Get(j.status.ID); ok && job.Result() != nil {
				j.simMs = ms(job.Result().ExecTime())
			}
		}
		c.led.add(j.res)
	}
	final, err := env.verifyFinal(tr, sw.muts)
	if err != nil {
		return sw, err
	}
	c.led.add(final.res)
	return sw, nil
}

// checkJob checks a done serve-mixed job. Its snapshot holds every batch
// acknowledged before the job started and none sent after the client saw
// it finish (jobs.Status leaves Finished empty), so for the min-style
// programs the output lies between the converged reference on the largest
// such graph and the reference cut at the job's iteration bound on the
// smallest. PageRank ranks must be finite and in
// (0, 1]. The top-k reply must equal the top k of the full output.
func (e *serveEnv) checkJob(j jobSample, batches []mutSample) string {
	job, ok := e.srv.Scheduler().Get(j.status.ID)
	if !ok || job.Result() == nil {
		return "job result not retained"
	}
	out := job.Result().Outputs
	if msg := checkTop(j.top, out); msg != "" {
		return msg
	}
	if j.req.Algorithm == "pr" {
		for v, x := range out {
			if !(x > 0 && x <= 1) {
				return fmt.Sprintf("pr vertex %d: rank %v outside (0, 1]", v, x)
			}
		}
		return ""
	}
	started, err := time.Parse(time.RFC3339Nano, j.status.Started)
	if err != nil {
		return "job status lacks its start time"
	}
	lo := &graph.Graph{NumVertices: e.g.NumVertices, Edges: append([]graph.Edge(nil), e.g.Edges...)}
	hi := &graph.Graph{NumVertices: e.g.NumVertices, Edges: append([]graph.Edge(nil), e.g.Edges...)}
	for _, b := range batches {
		if !b.applied() {
			continue
		}
		if b.res.Status == http.StatusOK && b.ack.Before(started) {
			lo.Edges = appendInserts(lo.Edges, b.batch)
		}
		if b.send.Before(j.end) {
			hi.Edges = appendInserts(hi.Edges, b.batch)
		}
	}
	prog := func() core.Program {
		p, _ := algorithms.ByName(j.req.Algorithm, graph.VertexID(j.req.Source)) // names from serveAlgorithms
		return p
	}
	upper, _ := core.RunReference(lo, prog(), serveMaxIters)
	lower, _ := core.RunReference(hi, prog(), 0)
	for v := range out {
		if out[v] < lower[v] || out[v] > upper[v] {
			return fmt.Sprintf("%s vertex %d: %v outside [%v, %v]", j.req.Algorithm, v, out[v], lower[v], upper[v])
		}
	}
	return ""
}

func appendInserts(edges []graph.Edge, batch []delta.Mutation) []graph.Edge {
	for _, m := range batch {
		edges = append(edges, graph.Edge{Src: m.Src, Dst: m.Dst})
	}
	return edges
}

// checkTop compares a top-k reply with the k highest outputs, ranked as
// the server documents: +Inf above finite values above -Inf above NaN,
// lower vertex ID first among equals.
func checkTop(got []topEntry, out []float64) string {
	class := func(v float64) int {
		switch {
		case math.IsNaN(v):
			return 0
		case math.IsInf(v, -1):
			return 1
		case math.IsInf(v, 1):
			return 3
		}
		return 2
	}
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := out[idx[a]], out[idx[b]]
		if ca, cb := class(va), class(vb); ca != cb {
			return ca > cb
		}
		if class(va) == 2 && va != vb {
			return va > vb
		}
		return idx[a] < idx[b]
	})
	k := topK
	if k > len(out) {
		k = len(out)
	}
	if len(got) != k {
		return fmt.Sprintf("top-k reply has %d entries, want %d", len(got), k)
	}
	for i, e := range got {
		v, err := parseJSONFloat(e.Value)
		want := idx[i]
		if err != nil || int(e.Vertex) != want || math.Float64bits(v) != math.Float64bits(out[want]) {
			return fmt.Sprintf("top-k entry %d: vertex %d value %s, want vertex %d value %v", i, e.Vertex, e.Value, want, out[want])
		}
	}
	return ""
}

// parseJSONFloat decodes a result value: a JSON number, or one of the
// strings the server uses for non-finite values.
func parseJSONFloat(raw json.RawMessage) (float64, error) {
	switch string(raw) {
	case `"Infinity"`:
		return math.Inf(1), nil
	case `"-Infinity"`:
		return math.Inf(-1), nil
	case `"NaN"`:
		return math.NaN(), nil
	}
	return strconv.ParseFloat(string(raw), 64)
}

// verifyFinal forces a compaction, runs CC to convergence over HTTP, and
// compares the streamed full result with the reference on the base graph
// plus every acknowledged insert.
func (e *serveEnv) verifyFinal(tr *tracer, muts []mutSample) (jobSample, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	sp := tr.begin("http.compact", 0, 0)
	code, err := call(c, http.MethodPost, e.base+"/v1/graphs/"+graphName+"/compact", nil, nil)
	tr.end(sp)
	if err != nil || code != http.StatusOK {
		return jobSample{}, fmt.Errorf("forced compaction: status %d, %v", code, err)
	}
	var acked []delta.Mutation
	for _, m := range muts {
		if !m.applied() {
			continue
		}
		if m.res.Status != http.StatusOK {
			return jobSample{}, errors.New("a mutation reply was lost; the final graph is unknown")
		}
		acked = append(acked, m.batch...)
	}
	j := e.job(c, tr, newWindow(time.Hour), jobs.Request{Graph: graphName, Algorithm: "cc"})
	if j.res.failure() != "" {
		return j, nil
	}
	var full struct {
		Full []json.RawMessage `json:"full"`
	}
	code, err = call(c, http.MethodGet, e.base+"/v1/jobs/"+j.status.ID+"/result?full=1", nil, &full)
	if err != nil || code != http.StatusOK {
		j.res = opResult{Err: err, Status: code}
		return j, nil
	}
	got := make([]float64, len(full.Full))
	for i, raw := range full.Full {
		if got[i], err = parseJSONFloat(raw); err != nil {
			j.res.Mismatch = fmt.Sprintf("full result value %d: %v", i, err)
			return j, nil
		}
	}
	want, _ := core.RunReference(delta.ApplyToGraph(e.g, acked), &algorithms.ConnectedComponents{}, 0)
	j.res.Mismatch = compareOutputs(got, want, true)
	return j, nil
}

// serveLayers fills the per-layer metrics of a traced server window;
// counts are per job completed in the window.
func (c *runCtx) serveLayers(env *serveEnv, sw serveWindow, untracedP50 float64) {
	m := c.layers
	s := summarize(sw)
	ops := float64(s.jobsIn)
	io := sw.after.io.Sub(sw.before.io)
	storageLayers(m, func(f func(storage.Snapshot) float64) float64 { return ratio(f(io), ops) })
	m["storage.whole_file_reads"] = metric{ratio(float64(c.tr.fileReadsOf(0)), ops), "count"}

	var runs []runStats
	var queueShare, runShare, polls float64
	var done int
	for _, j := range sw.jobs {
		job, ok := env.srv.Scheduler().Get(j.status.ID)
		if !ok || job.Result() == nil {
			continue
		}
		submitted, _ := time.Parse(time.RFC3339Nano, j.status.Submitted)
		started, _ := time.Parse(time.RFC3339Nano, j.status.Started)
		res := job.Result()
		runs = append(runs, statsOf(j.req.Algorithm, res.WallTime, res))
		total := float64(j.end.Sub(j.start))
		queueShare += ratio(float64(started.Sub(submitted)), total)
		runShare += ratio(float64(res.WallTime), total)
		polls += float64(j.polls)
		done++
	}
	engineLayers(m, runs)

	sh := sw.after.shared.Sub(sw.before.shared)
	hits, misses := float64(sh.Hits), float64(sh.Misses)
	m["buffer.shared_hits"] = metric{ratio(hits, ops), "count"}
	m["buffer.shared_misses"] = metric{ratio(misses, ops), "count"}
	m["buffer.shared_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["buffer.shared_evictions"] = metric{ratio(float64(sh.Evictions), ops), "count"}

	spans, _, _ := c.tr.snapshot()
	shares := childShares(spans, "job")
	m["jobs.queue_wait_share"] = metric{ratio(queueShare, float64(done)), "ratio"}
	m["jobs.run_share"] = metric{ratio(runShare, float64(done)), "ratio"}
	m["jobs.rejected"] = metric{float64(s.rejected), "count"}
	m["server.submit_share"] = metric{shares["http.submit"], "ratio"}
	m["server.poll_share"] = metric{shares["http.poll"], "ratio"}
	m["server.polls_per_job"] = metric{ratio(polls, float64(done)), "count"}
	m["server.result_share"] = metric{shares["http.result"], "ratio"}

	before, after := sw.before.store, sw.after.store
	layersMax := 0
	var acked float64
	for _, b := range sw.muts {
		if b.layers > layersMax {
			layersMax = b.layers
		}
		if b.res.Status == http.StatusOK {
			acked += float64(len(b.batch))
		}
	}
	walBytes := float64(after.WAL.Bytes - before.WAL.Bytes)
	m["delta.batches"] = metric{float64(after.Batches - before.Batches), "count"}
	m["delta.seals"] = metric{float64(after.Seals - before.Seals), "count"}
	m["delta.compactions"] = metric{float64(after.Generation - before.Generation), "count"}
	m["delta.layers_max"] = metric{float64(layersMax), "count"}
	m["delta.write_amp"] = metric{ratio(float64(io.WriteBytes())+walBytes, acked*graph.EdgeBytes), "ratio"}
	m["wal.records"] = metric{float64(after.WAL.Records - before.WAL.Records), "count"}
	m["wal.bytes"] = metric{walBytes, "B"}
	m["journal.records_per_job"] = metric{ratio(float64(sw.after.journal-sw.before.journal), float64(len(sw.jobs))), "ratio"}

	c.note("traced: submit_ms_p50 %.4f, poll_ms_p50 %.4f, result_ms_p50 %.4f (n=%d jobs)",
		median(collect(sw.jobs, func(j jobSample) []float64 { return []float64{j.submitMs} })),
		median(collect(sw.jobs, func(j jobSample) []float64 { return j.pollMs })),
		median(collect(sw.jobs, func(j jobSample) []float64 { return []float64{j.resultMs} })), len(sw.jobs))
	traceLayers(m, c.tr, untracedP50, kindMedian(s.jobMsByKind))
}

func collect(js []jobSample, f func(jobSample) []float64) []float64 {
	var out []float64
	for _, j := range js {
		out = append(out, f(j)...)
	}
	return out
}
