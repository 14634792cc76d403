package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/core"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function (or by the harness's own Profiler hook).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 at top level
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced code paths call it freely.
// begin/end pairs made by the benchmark's own goroutine nest through a
// stack; Phase spans, which the harness opens from worker goroutines,
// attach to whatever benchmark span is open at the time.
type tracer struct {
	t0 time.Time

	mu sync.Mutex
	// guarded by mu
	spans []span
	// guarded by mu
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the current one and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	id := t.open(name, true)
	return func() { t.close(id, true) }
}

// record adds a closed span with the given bounds, nested in the
// current one, for a stretch of time measured outside begin/end.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	id := t.open(name, false)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Start = start.Sub(t.t0).Nanoseconds()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// Phase implements experiments.Profiler: the harness times its
// localization, probing and analysis phases through it.
func (t *tracer) Phase(name string) func() {
	id := t.open("experiments.phase."+name, false)
	return func() { t.close(id, false) }
}

func (t *tracer) open(name string, push bool) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	if push {
		t.stack = append(t.stack, id)
	}
	return id
}

func (t *tracer) close(id int, pop bool) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	if pop && len(t.stack) > 0 && t.stack[len(t.stack)-1] == id {
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// seconds sums the durations of every closed span with the given name.
func (t *tracer) seconds(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// writeFile writes every span as one JSON document.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// timedPolicy is a transparent wrapper around a selection policy that
// counts its decisions and the time spent in them. It forwards nothing
// but the SelectionPolicy methods and Validate, so the selector treats
// it exactly like the wrapped policy (the paper policy does not race).
type timedPolicy struct {
	inner     core.SelectionPolicy
	decisions atomic.Int64
	busyNs    atomic.Int64
}

func (p *timedPolicy) Name() string    { return p.inner.Name() }
func (p *timedPolicy) Validate() error { return core.ValidatePolicy(p.inner) }

func (p *timedPolicy) ResolveDNS(v core.PolicyView, id topology.LDNSID, vid content.VideoID) topology.DataCenterID {
	t := time.Now()
	dc := p.inner.ResolveDNS(v, id, vid)
	p.busyNs.Add(int64(time.Since(t)))
	p.decisions.Add(1)
	return dc
}

func (p *timedPolicy) ServeOrRedirect(v core.PolicyView, srv topology.ServerID, vid content.VideoID, id topology.LDNSID, home core.Home) core.Decision {
	t := time.Now()
	d := p.inner.ServeOrRedirect(v, srv, vid, id, home)
	p.busyNs.Add(int64(time.Since(t)))
	p.decisions.Add(1)
	return d
}

// countingSink counts the records the simulation emits (an ExtraSink).
type countingSink struct{ n atomic.Int64 }

func (c *countingSink) Record(string, capture.FlowRecord) { c.n.Add(1) }
