// Package telemetry is the stdlib-only observability layer of the
// toolkit: a structured trace emitter (typed events and hierarchical
// spans written as JSONL to any io.Writer), a metrics registry (named
// counters, gauges and fixed-bucket histograms, safe for concurrent
// use), per-stage wall/CPU timing, pprof capture hooks, and a
// Prometheus text renderer for the embedded ops server.
//
// Every entry point is nil-safe: a nil *Tracer, *Registry, *Counter,
// *Gauge or *Histogram turns the corresponding call into a no-op, so
// instrumented hot paths pay a single nil check when telemetry is
// disabled.
//
// Trace schema (one JSON object per line):
//
//		{"seq":3,"t_us":1042,"kind":"event","name":"sim.fault","par":2,"fields":{...}}
//		{"seq":4,"t_us":1042,"kind":"span","name":"anneal.level","id":5,"par":2,"dur_us":981,"fields":{...}}
//
//	  - seq    strictly increasing emission sequence number
//	  - t_us   microseconds since the tracer was created (monotonic
//	           clock); for spans this is the span's start time
//	  - kind   "event" (a point in time) or "span" (a completed
//	           duration, carrying dur_us)
//	  - name   dotted stage.verb identifier, e.g. "anneal.level",
//	           "sim.reconfig", "cli.run"
//	  - id     the span's identifier, unique within the trace (spans
//	           only; ids start at 1)
//	  - par    id of the enclosing span, omitted at the root — the
//	           edge that makes the trace a reconstructable tree
//	           (anneal→place→fti, campaign→trial→recovery)
//	  - fields free-form payload; keys are sorted by the JSON encoder,
//	           so output is deterministic given deterministic inputs
//
// Records are ordered by seq (emission order). Because a span is
// emitted when it ends, its t_us may precede that of an earlier line,
// and a parent span always appears after its children.
package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dmfb/internal/stats"
)

// Fields is the free-form payload of a trace record.
type Fields map[string]any

// SpanID identifies one span within a trace. The zero SpanID means
// "no span": a tracer whose parent is zero emits roots, and as the
// parent argument of StartChild it means the tracer's own parent.
type SpanID uint64

// maxSpanSamples bounds the per-name duration samples kept for
// Summaries, so long campaigns cannot grow memory without bound.
const maxSpanSamples = 8192

// Tracer writes structured trace records as JSONL. A Tracer is a view
// of one shared sink (writer, clock, sequence numbers, span ids and
// duration samples) plus a parent span: Start, Event and EmitSpan
// parent their records to it. Under returns another view on the same
// sink, so a caller hands each layer a tracer that already carries
// the layer's parent and concurrent work never shares a mutable
// parent. Create one with New (or NewWithClock for deterministic
// tests); its parent is zero, so it emits roots. The zero value is not
// usable, but a nil *Tracer is: every method no-ops.
type Tracer struct {
	*sink
	parent SpanID
}

// sink is the state every view of one trace shares.
type sink struct {
	mu    sync.Mutex
	w     io.Writer
	clock func() time.Duration // monotonic time since tracer creation
	seq   uint64
	err   error
	durs  map[string][]float64 // span duration samples in milliseconds

	ids atomic.Uint64 // span id allocator
}

// New returns a Tracer emitting JSONL records to w. Timestamps are
// microseconds since this call, taken from the monotonic clock.
func New(w io.Writer) *Tracer {
	start := time.Now()
	return NewWithClock(w, func() time.Duration { return time.Since(start) })
}

// NewWithClock is New with an injectable monotonic clock, for
// deterministic (golden-output) tests.
func NewWithClock(w io.Writer, clock func() time.Duration) *Tracer {
	return &Tracer{sink: &sink{w: w, clock: clock, durs: make(map[string][]float64)}}
}

// Under returns a view of t's trace whose records nest under parent
// (zero: roots). It allocates one small struct; on a nil tracer it
// returns nil and allocates nothing.
func (t *Tracer) Under(parent SpanID) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{sink: t.sink, parent: parent}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Err returns the first write or encoding error encountered, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// record is the wire format of one JSONL line.
type record struct {
	Seq    uint64 `json:"seq"`
	TUS    int64  `json:"t_us"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"par,omitempty"`
	DurUS  int64  `json:"dur_us,omitempty"`
	Fields Fields `json:"fields,omitempty"`
}

// Event emits a point-in-time record under the tracer's parent.
func (t *Tracer) Event(name string, fields Fields) {
	if t == nil {
		return
	}
	t.emit(record{TUS: t.clock().Microseconds(), Kind: "event", Name: name,
		Parent: uint64(t.parent), Fields: fields})
}

// EmitSpan emits a completed span retrospectively: a span of the
// given duration ending now, under the tracer's parent. Used when the
// caller measured the duration itself (e.g. an annealing level's
// wall time).
func (t *Tracer) EmitSpan(name string, dur time.Duration, fields Fields) {
	if t == nil {
		return
	}
	end := t.clock()
	start := end - dur
	if start < 0 {
		start = 0
	}
	t.emit(record{TUS: start.Microseconds(), Kind: "span", Name: name,
		ID: t.ids.Add(1), Parent: uint64(t.parent),
		DurUS: dur.Microseconds(), Fields: fields})
	t.sample(name, dur)
}

// Span is an in-flight span started by Start or StartChild. The zero
// Span (from a nil tracer) is valid: End no-ops and ID returns 0, so
// a child started under it becomes a root.
type Span struct {
	t      *Tracer
	name   string
	start  time.Duration
	id     SpanID
	parent SpanID
}

// Start begins a span under the tracer's parent. End emits it as one
// "span" record.
func (t *Tracer) Start(name string) Span { return t.StartChild(name, 0) }

// StartChild begins a span under an explicit parent (zero: the
// tracer's own parent). The span's id is allocated immediately, so
// nested work can reference it before End or scope a tracer Under it.
func (t *Tracer) StartChild(name string, parent SpanID) Span {
	if t == nil {
		return Span{}
	}
	if parent == 0 {
		parent = t.parent
	}
	return Span{t: t, name: name, start: t.clock(), id: SpanID(t.ids.Add(1)), parent: parent}
}

// ID returns the span's identifier (0 for the zero Span).
func (s Span) ID() SpanID { return s.id }

// StartChild begins a child span of s.
func (s Span) StartChild(name string) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.StartChild(name, s.id)
}

// End completes the span, attaching the given fields.
func (s Span) End(fields Fields) {
	if s.t == nil {
		return
	}
	dur := s.t.clock() - s.start
	s.t.emit(record{TUS: s.start.Microseconds(), Kind: "span", Name: s.name,
		ID: uint64(s.id), Parent: uint64(s.parent),
		DurUS: dur.Microseconds(), Fields: fields})
	s.t.sample(s.name, dur)
}

func (t *sink) emit(rec record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	rec.Seq = t.seq
	b, err := json.Marshal(rec)
	if err != nil {
		if t.err == nil {
			t.err = err
		}
		return
	}
	b = append(b, '\n')
	if _, err := t.w.Write(b); err != nil && t.err == nil {
		t.err = err
	}
}

func (t *sink) sample(name string, dur time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.durs[name]) < maxSpanSamples {
		t.durs[name] = append(t.durs[name], float64(dur)/float64(time.Millisecond))
	}
}

// Summaries returns descriptive statistics of span durations (in
// milliseconds) per span name, for end-of-run reporting. Only the
// first maxSpanSamples spans per name contribute.
func (t *Tracer) Summaries() map[string]stats.Summary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.durs) == 0 {
		return nil
	}
	out := make(map[string]stats.Summary, len(t.durs))
	for name, ds := range t.durs {
		out[name] = stats.Describe(ds)
	}
	return out
}
