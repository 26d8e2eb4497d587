package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

// spanRec is one timed call into a layer. Spans of one simulated machine
// share a run id; Parent is the enclosing span's ID, or -1 at the top.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *spanRec) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans and counts in memory for one traced run. Calls are made
// from a single goroutine. Each span also sets the pprof labels "run" and
// "span" for the goroutine, so CPU samples can be grouped by the span that
// was open when they were taken.
type tracer struct {
	t0     time.Time
	run    int
	ctx    context.Context
	spans  []spanRec
	stack  []int
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), run: -1, ctx: context.Background(), counts: map[string]float64{}}
}

// startRun opens the root span of run id, named after the machine.
func (t *tracer) startRun(id int, name string, fn func()) {
	t.run = id
	t.ctx = pprof.WithLabels(context.Background(), pprof.Labels("run", strconv.Itoa(id)))
	t.span(name, fn)
}

// span times fn as a child of the innermost open span.
func (t *tracer) span(name string, fn func()) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Run: t.run, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	pprof.Do(t.ctx, pprof.Labels("span", name), func(context.Context) { fn() })
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(time.Since(t.t0))
}

// count adds v to the named counter.
func (t *tracer) count(name string, v float64) { t.counts[name] += v }

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for i := range t.spans {
		if t.spans[i].Name == name {
			d += t.spans[i].dur()
		}
	}
	return d
}

// selfTimes returns, per span name, the summed duration of its spans minus
// the part their child spans cover. Spans are taken on one goroutine, so
// children never overlap one another.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for i := range t.spans {
		s := &t.spans[i]
		self[s.Name] += s.dur()
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.dur()
		}
	}
	return self
}

// write saves the spans, their self times by name, and the counts as one
// JSON file.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type selfRow struct {
		Name   string  `json:"name"`
		SelfS  float64 `json:"self_s"`
		TotalS float64 `json:"total_s"`
	}
	rows := make([]selfRow, len(names))
	for i, n := range names {
		rows[i] = selfRow{Name: n, SelfS: self[n].Seconds(), TotalS: t.total(n).Seconds()}
	}
	data, err := json.MarshalIndent(struct {
		Spans  []spanRec          `json:"spans"`
		Self   []selfRow          `json:"self"`
		Counts map[string]float64 `json:"counts"`
	}{t.spans, rows, t.counts}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
