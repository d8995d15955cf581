package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans are recorded only by the benchmark, around its calls into each
// layer. A span has a name, a start, an end and the span that caused it;
// spans of one simulation trial or one HTTP request share a group ID. A
// span's self time is its duration minus the time its child spans cover.
//
// Spans that fire per event or per Map call are aggregated per name (count,
// total, self time and a log histogram of durations); the first rawPerName
// spans of each name are kept whole. Everything is written out when the run
// ends (Tracer.WriteFile).

// rawPerName bounds the raw spans kept per span name.
const rawPerName = 2000

// spanAgg aggregates every span of one name.
type spanAgg struct {
	count int64
	total int64 // ns
	self  int64 // ns
	max   int64 // ns
	hist  logHist
}

func (a *spanAgg) add(dur, self int64) {
	a.count++
	a.total += dur
	a.self += self
	a.max = max(a.max, dur)
	a.hist.add(dur)
}

func (a *spanAgg) merge(o *spanAgg) {
	a.count += o.count
	a.total += o.total
	a.self += o.self
	a.max = max(a.max, o.max)
	a.hist.merge(&o.hist)
}

// rawSpan is one recorded span, times in ns since the tracer's epoch.
type rawSpan struct {
	Name   string `json:"name"`
	Group  int64  `json:"group"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// Tracer collects spans and counters for one traced pass. Tracks record
// spans without locking and merge into the Tracer when they finish.
type Tracer struct {
	epoch time.Time
	// clock returns ns since epoch; tests substitute a fake.
	clock func() int64

	mu     sync.Mutex
	aggs   map[string]*spanAgg
	raw    []rawSpan
	rawN   map[string]int
	counts map[string]int64
	groups int64
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer {
	t := &Tracer{
		epoch:  time.Now(),
		aggs:   make(map[string]*spanAgg),
		rawN:   make(map[string]int),
		counts: make(map[string]int64),
	}
	t.clock = func() int64 { return int64(time.Since(t.epoch)) }
	return t
}

// Now returns the tracer clock in ns.
func (t *Tracer) Now() int64 { return t.clock() }

// Agg returns the aggregate of spans named name (zero if none fired).
func (t *Tracer) Agg(name string) spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a, ok := t.aggs[name]; ok {
		return *a
	}
	return spanAgg{}
}

// Count returns counter name.
func (t *Tracer) Count(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// AddCount adds v to counter name.
func (t *Tracer) AddCount(name string, v int64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// Record adds one leaf span (no children) observed by concurrent code that
// keeps no Track, such as a store call from a server goroutine.
func (t *Tracer) Record(name string, group int64, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.aggLocked(name).add(end-start, end-start)
	t.rawLocked(rawSpan{Name: name, Group: group, Start: start, End: end, Self: end - start})
}

func (t *Tracer) aggLocked(name string) *spanAgg {
	a, ok := t.aggs[name]
	if !ok {
		a = new(spanAgg)
		t.aggs[name] = a
	}
	return a
}

func (t *Tracer) rawLocked(s rawSpan) {
	if t.rawN[s.Name] < rawPerName {
		t.rawN[s.Name]++
		t.raw = append(t.raw, s)
	}
}

// NewTrack starts a span track for one goroutine's unit of work (a trial or
// a request) under a fresh group ID.
func (t *Tracer) NewTrack() *Track {
	t.mu.Lock()
	t.groups++
	g := t.groups
	t.mu.Unlock()
	return &Track{tr: t, group: g, aggs: make(map[string]*spanAgg)}
}

// WriteFile writes every aggregate, counter and raw span as JSON.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type aggOut struct {
		Name    string  `json:"name"`
		Count   int64   `json:"count"`
		TotalNS int64   `json:"total_ns"`
		SelfNS  int64   `json:"self_ns"`
		P50NS   float64 `json:"p50_ns"`
		P99NS   float64 `json:"p99_ns"`
	}
	out := struct {
		Spans    []aggOut         `json:"spans"`
		Counters map[string]int64 `json:"counters"`
		Raw      []rawSpan        `json:"raw"`
	}{Counters: t.counts, Raw: t.raw}
	for name, a := range t.aggs {
		out.Spans = append(out.Spans, aggOut{name, a.count, a.total, a.self, a.hist.quantile(50), a.hist.quantile(99)})
	}
	sort.Slice(out.Spans, func(i, j int) bool { return out.Spans[i].Name < out.Spans[j].Name })
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Track records nested spans on one goroutine. Begin opens a child of the
// innermost open span, End closes the innermost one, and Switch closes it
// and opens a sibling at the same instant, so consecutive spans tile time
// with no gap: the simulator's event spans partition a trial exactly.
type Track struct {
	tr     *Tracer
	group  int64
	stack  []openSpan
	nextID int32
	aggs   map[string]*spanAgg
	raw    []rawSpan
	rawN   map[string]int
}

type openSpan struct {
	name   string
	agg    *spanAgg
	id     int32
	parent int32
	start  int64
	child  int64 // ns covered by closed children
}

// agg returns the track's own aggregate of spans named name.
func (k *Track) agg(name string) spanAgg {
	if a, ok := k.aggs[name]; ok {
		return *a
	}
	return spanAgg{}
}

// Begin opens a span named name as a child of the innermost open span.
func (k *Track) Begin(name string) { k.beginAt(name, k.tr.clock()) }

// End closes the innermost open span.
func (k *Track) End() { k.endAt(k.tr.clock()) }

// Switch closes the innermost open span, which must be named name, and
// opens a sibling of the same name at the same instant.
func (k *Track) Switch(name string) {
	if n := len(k.stack); n == 0 || k.stack[n-1].name != name {
		panic(fmt.Sprintf("perfbench: Switch(%q) with another span innermost", name))
	}
	ts := k.tr.clock()
	k.endAt(ts)
	k.beginAt(name, ts)
}

func (k *Track) beginAt(name string, ts int64) {
	a, ok := k.aggs[name]
	if !ok {
		a = new(spanAgg)
		k.aggs[name] = a
	}
	parent := int32(0)
	if n := len(k.stack); n > 0 {
		parent = k.stack[n-1].id
	}
	k.nextID++
	k.stack = append(k.stack, openSpan{name: name, agg: a, id: k.nextID, parent: parent, start: ts})
}

func (k *Track) endAt(ts int64) {
	n := len(k.stack)
	o := k.stack[n-1]
	k.stack = k.stack[:n-1]
	dur := ts - o.start
	self := dur - o.child
	if n > 1 {
		k.stack[n-2].child += dur
	}
	o.agg.add(dur, self)
	if k.rawN == nil {
		k.rawN = make(map[string]int)
	}
	if k.rawN[o.name] < rawPerName {
		k.rawN[o.name]++
		k.raw = append(k.raw, rawSpan{Name: o.name, Group: k.group, ID: o.id, Parent: o.parent, Start: o.start, End: ts, Self: self})
	}
}

// Finish merges the track into its tracer. Every span must be closed.
func (k *Track) Finish() {
	if len(k.stack) != 0 {
		panic(fmt.Sprintf("perfbench: track finished with %d open spans", len(k.stack)))
	}
	t := k.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, a := range k.aggs {
		t.aggLocked(name).merge(a)
	}
	for _, s := range k.raw {
		t.rawLocked(s)
	}
}
