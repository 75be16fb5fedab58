package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/graphsd/graphsd/internal/storage"
)

// maxDeviceEvents bounds the device events kept in memory; later events
// are counted but not stored.
const maxDeviceEvents = 100_000

// span is one timed call the benchmark made into a layer. Spans of one job
// (or one mutation batch) share Job; Parent is the span that caused it, 0
// for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Job    int64  `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// deviceEvent is one accounted device operation observed through
// Device.SetTracer, attached as a child event of the span that was current
// on the device when it happened.
type deviceEvent struct {
	Parent int64  `json:"parent"`
	At     int64  `json:"at_ns"`
	Op     string `json:"op"`
	Class  string `json:"class"`
	Bytes  int64  `json:"bytes"`
	CostNs int64  `json:"sim_cost_ns"`
}

// tracer keeps spans and device events in memory until the run ends. A nil
// *tracer is the untraced run: every method is a no-op.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	current atomic.Int64 // span that owns device events right now

	mu      sync.Mutex
	spans   []span
	events  []deviceEvent
	dropped int64
	seen    int64
	// fileReads counts whole-file reads (open+stat+read+close on the
	// device) per owning span.
	fileReads map[int64]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), fileReads: map[int64]int64{}} }

// spanRef is an open span.
type spanRef struct {
	id, parent, job int64
	name            string
	start           time.Time
}

// begin opens a span. job 0 makes the span its own job.
func (t *tracer) begin(name string, parent, job int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	id := t.nextID.Add(1)
	if job == 0 {
		job = id
	}
	return spanRef{id: id, parent: parent, job: job, name: name, start: time.Now()}
}

// end closes s.
func (t *tracer) end(s spanRef) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: s.id, Parent: s.parent, Job: s.job, Name: s.name,
		Start: int64(s.start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// own makes s the span device events are attached to until the next call;
// pass spanRef{} to detach.
func (t *tracer) own(s spanRef) {
	if t != nil {
		t.current.Store(s.id)
	}
}

// attach installs the device hook on dev.
func (t *tracer) attach(dev *storage.Device) {
	if t == nil {
		return
	}
	dev.SetTracer(func(ev storage.TraceEvent) {
		at := int64(time.Since(t.t0))
		parent := t.current.Load()
		t.mu.Lock()
		t.seen++
		if ev.Op == "read" {
			t.fileReads[parent]++
		}
		if len(t.events) < maxDeviceEvents {
			t.events = append(t.events, deviceEvent{
				Parent: parent, At: at, Op: ev.Op, Class: ev.Class.String(),
				Bytes: ev.Bytes, CostNs: int64(ev.Cost),
			})
		} else {
			t.dropped++
		}
		t.mu.Unlock()
	})
}

// snapshot returns copies of the spans and events recorded so far.
func (t *tracer) snapshot() ([]span, []deviceEvent, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]deviceEvent(nil), t.events...), t.dropped
}

// deviceEvents is the number of device events seen, stored or not.
func (t *tracer) deviceEvents() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seen
}

// fileReadsOf is the number of whole-file reads owned by the span id, or
// by any span when id is 0.
func (t *tracer) fileReadsOf(id int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id != 0 {
		return t.fileReads[id]
	}
	var n int64
	for _, c := range t.fileReads {
		n += c
	}
	return n
}

// spanDurations groups span durations (ms) by span name.
func spanDurations(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// childShares returns, for every child span name under root spans named
// rootName, the mean over roots of the share of the root's duration that
// children of that name cover. Shares are measured where the time is
// spent, per job, so they need no clock shared with the program.
func childShares(spans []span, rootName string) map[string]float64 {
	roots := map[int64]span{}
	for _, s := range spans {
		if s.Name == rootName {
			roots[s.ID] = s
		}
	}
	if len(roots) == 0 {
		return map[string]float64{}
	}
	covered := map[int64]map[string]int64{}
	for _, s := range spans {
		r, ok := roots[s.Parent]
		if !ok || r.End <= r.Start {
			continue
		}
		if covered[s.Parent] == nil {
			covered[s.Parent] = map[string]int64{}
		}
		covered[s.Parent][s.Name] += s.End - s.Start
	}
	sums := map[string]float64{}
	for id, r := range roots {
		for name, d := range covered[id] {
			sums[name] += float64(d) / float64(r.End-r.Start)
		}
	}
	for name := range sums {
		sums[name] /= float64(len(roots))
	}
	return sums
}

// write stores every span and device event as JSON lines in path.
func (t *tracer) write(path string) error {
	spans, events, dropped := t.snapshot()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			span
		}{"span", s}); err != nil {
			f.Close()
			return err
		}
	}
	for _, e := range events {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			deviceEvent
		}{"device", e}); err != nil {
			f.Close()
			return err
		}
	}
	if dropped > 0 {
		fmt.Fprintf(w, "{\"kind\":\"dropped_device_events\",\"count\":%d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
