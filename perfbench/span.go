package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Op groups the spans of one operation (a
// replay, a campaign, a job); Parent is the span that caused it (0 for
// an operation's root).
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Op     uint64        `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

// interval is a half-open [start, end) stretch of host time.
type interval struct{ start, end time.Duration }

// selfTime is the part of [start, end) that no child covers: children
// are clipped to the parent and overlapping children are subtracted
// once, so a parent that waits on two concurrent children is not
// charged negative time.
func selfTime(start, end time.Duration, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < start {
			c.start = start
		}
		if c.end > end {
			c.end = end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := time.Duration(0)
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return end - start - covered
}

// maxKeptSpans bounds the raw spans held for the written trace; every
// span, kept or not, still feeds the per-name aggregates.
const maxKeptSpans = 100000

type openSpan struct {
	span     Span
	children []interval
}

// Tracer records spans and observed values in memory. A nil *Tracer is the
// untraced run: every method returns at its nil check.
type Tracer struct {
	t0  time.Time
	ops atomic.Uint64

	mu       sync.Mutex
	nextID   int
	open     map[int]*openSpan
	kept     []Span
	dropped  int
	total    map[string]*samples
	self     map[string]*samples
	observed map[string]*samples
}

func newTracer() *Tracer {
	return &Tracer{
		t0:       time.Now(),
		open:     make(map[int]*openSpan),
		total:    make(map[string]*samples),
		self:     make(map[string]*samples),
		observed: make(map[string]*samples),
	}
}

// NewOp returns a fresh operation ID.
func (t *Tracer) NewOp() uint64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// Start opens a span and returns its ID (0 when untraced).
func (t *Tracer) Start(name string, op uint64, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	id := t.nextID
	t.open[id] = &openSpan{span: Span{ID: id, Parent: parent, Op: op, Name: name, Start: now}}
	return id
}

// End closes a span, charging its interval to the parent's children.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	o.span.End = now
	if p, ok := t.open[o.span.Parent]; ok {
		p.children = append(p.children, interval{o.span.Start, now})
	}
	t.dist(t.total, o.span.Name).add(float64(now - o.span.Start))
	t.dist(t.self, o.span.Name).add(float64(selfTime(o.span.Start, now, o.children)))
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, o.span)
	} else {
		t.dropped++
	}
}

// Observe records one value of a named distribution that is not a
// span (a size, a per-operation count).
func (t *Tracer) Observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	d := t.dist(t.observed, name)
	t.mu.Unlock()
	d.add(v)
}

func (t *Tracer) dist(m map[string]*samples, name string) *samples {
	d, ok := m[name]
	if !ok {
		d = &samples{}
		m[name] = d
	}
	return d
}

func (t *Tracer) lookup(m map[string]*samples, name string) *samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d, ok := m[name]; ok {
		return d
	}
	return &samples{}
}

// Total is the distribution of a span name's durations, in ns.
func (t *Tracer) Total(name string) *samples { return t.lookup(t.total, name) }

// Self is the distribution of a span name's self times, in ns.
func (t *Tracer) Self(name string) *samples { return t.lookup(t.self, name) }

// Observed is a named Observe distribution.
func (t *Tracer) Observed(name string) *samples { return t.lookup(t.observed, name) }

// WriteFile writes the kept spans as JSON lines, ordered by start.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	spans := append([]Span(nil), t.kept...)
	dropped := t.dropped
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
