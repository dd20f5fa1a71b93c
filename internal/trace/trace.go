// Package trace provides structured event tracing and a metrics registry
// for the simulation stack. Subsystems emit typed spans (task attempts,
// job phases, VM migrations, PM power states) and instant events onto
// named tracks — one track per PM, VM or TaskTracker — and publish
// counters, gauges and streaming histograms into a Registry. Exporters
// write the collected events as JSONL or as the Chrome trace_event format
// loadable in Perfetto / chrome://tracing.
//
// Three properties shape the design:
//
//   - Disabled tracing must be free. Every method is nil-safe: a nil
//     *Tracer, *Registry, *Counter, *Gauge or *Histogram accepts the full
//     API as a no-op, so instrumented code never branches and the hot
//     path of an untraced simulation pays only a nil check.
//
//   - Enabled tracing must be cheap. Completed events live in a chunked
//     store: chunks are allocated at their final size and never regrown,
//     so recording never copies earlier events. Event args are copied
//     into an arena the tracer owns, so a span's Begin and End args end
//     up contiguous without a concatenated slice, callers' variadic arg
//     slices never escape, and Instant and a Begin/End pair allocate
//     nothing per call on a warm tracer. Exporters walk the store in
//     place and hand-encode each line with package jsonenc, whose
//     appenders reproduce encoding/json byte for byte, into one reused
//     buffer behind a bufio.Writer.
//
//   - Traces must be deterministic. Timestamps come exclusively from the
//     bound simulation clock (never the wall clock), events are stored in
//     emission order, and exporters serialize with stable field and key
//     ordering — two runs with the same seed produce byte-identical
//     files.
package trace

import "time"

// Clock supplies simulated time. *sim.Engine satisfies it.
type Clock interface {
	Now() time.Duration
}

// Arg is one key/value annotation on a span or instant event. Values are
// either strings or numbers; construct them with S and F.
type Arg struct {
	// Key names the annotation.
	Key string

	str   string
	num   float64
	isNum bool
}

// S builds a string-valued argument.
func S(key, value string) Arg { return Arg{Key: key, str: value} }

// F builds a numeric argument.
func F(key string, value float64) Arg { return Arg{Key: key, num: value, isNum: true} }

// event is one recorded trace entry.
type event struct {
	phase byte // 'X' complete span, 'i' instant
	start time.Duration
	dur   time.Duration
	track string
	cat   string
	name  string
	args  []Arg
}

// openSpan is a begun-but-unfinished span. Slots are reused through a
// free list; gen guards stale Span handles after reuse. args is the
// slot's own buffer, reused by every span that occupies the slot.
type openSpan struct {
	start time.Duration
	track string
	cat   string
	name  string
	args  []Arg
	gen   uint32
	live  bool
}

// Chunk capacities of the event store and the args arena: the first
// chunk is small so short-lived tracers stay cheap, and each later one
// doubles up to the cap.
const (
	minChunk = 64
	maxChunk = 4096
)

func nextChunkCap(prev int) int {
	return min(max(2*prev, minChunk), maxChunk)
}

// Tracer collects spans and instant events against a simulation clock.
// The zero value is not usable; use New. A nil *Tracer is a valid no-op
// tracer. Tracers are not safe for concurrent use: the simulation stack
// is single-goroutine by construction.
type Tracer struct {
	clock Clock
	// chunks holds the completed events in emission order. Each chunk
	// is allocated at its final capacity and never regrown, so
	// recording never copies earlier events.
	chunks [][]event
	n      int
	// arena is the current chunk of the args arena: recorded events
	// copy their args into it, so no caller slice is retained. Full
	// chunks stay alive through the events that reference them.
	arena []Arg
	open  []openSpan
	free  []int
}

// New returns an empty tracer. The clock may be nil initially (events
// stamp at zero) and bound later with SetClock — deployment helpers
// create the engine after the user creates the tracer.
func New(clock Clock) *Tracer {
	return &Tracer{clock: clock}
}

// SetClock binds (or re-binds) the simulated time source.
func (t *Tracer) SetClock(clock Clock) {
	if t == nil {
		return
	}
	t.clock = clock
}

func (t *Tracer) now() time.Duration {
	if t.clock == nil {
		return 0
	}
	return t.clock.Now()
}

// push returns the next free slot of the event store.
func (t *Tracer) push() *event {
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last]) == cap(t.chunks[last]) {
		prev := 0
		if last >= 0 {
			prev = cap(t.chunks[last])
		}
		t.chunks = append(t.chunks, make([]event, 0, nextChunkCap(prev)))
		last++
	}
	c := t.chunks[last]
	c = c[:len(c)+1]
	t.chunks[last] = c
	t.n++
	return &c[len(c)-1]
}

// store copies a followed by b into the args arena and returns the
// copy, capped so that appending to it can never overwrite a neighbour.
func (t *Tracer) store(a, b []Arg) []Arg {
	n := len(a) + len(b)
	if n == 0 {
		return nil
	}
	if cap(t.arena)-len(t.arena) < n {
		t.arena = make([]Arg, 0, max(nextChunkCap(cap(t.arena)), n))
	}
	lo := len(t.arena)
	t.arena = append(append(t.arena, a...), b...)
	return t.arena[lo:len(t.arena):len(t.arena)]
}

// Len returns the number of completed events recorded so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// OpenSpans returns the number of begun-but-unfinished spans.
func (t *Tracer) OpenSpans() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.open {
		if t.open[i].live {
			n++
		}
	}
	return n
}

// Instant records a zero-duration event on a track.
func (t *Tracer) Instant(track, category, name string, args ...Arg) {
	if t == nil {
		return
	}
	*t.push() = event{
		phase: 'i',
		start: t.now(),
		track: track,
		cat:   category,
		name:  name,
		args:  t.store(args, nil),
	}
}

// Span is a handle to an in-progress span returned by Begin. The zero
// Span (and any Span from a nil tracer) is valid and End on it is a
// no-op, so callers can hold spans unconditionally.
type Span struct {
	t   *Tracer
	idx int
	gen uint32
}

// Begin opens a span on a track. End it with Span.End; spans still open
// when an exporter runs are emitted as running to the export instant.
func (t *Tracer) Begin(track, category, name string, args ...Arg) Span {
	if t == nil {
		return Span{}
	}
	var idx int
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		idx = len(t.open)
		t.open = append(t.open, openSpan{})
	}
	slot := &t.open[idx]
	slot.start = t.now()
	slot.track, slot.cat, slot.name = track, category, name
	slot.args = append(slot.args[:0], args...)
	slot.gen++
	slot.live = true
	return Span{t: t, idx: idx, gen: slot.gen}
}

// End closes the span, recording a complete event whose duration runs
// from Begin to now. Extra args are appended to those given at Begin.
// Ending a zero Span, or ending twice, is a no-op.
func (s Span) End(args ...Arg) {
	if s.t == nil || s.idx >= len(s.t.open) {
		return
	}
	slot := &s.t.open[s.idx]
	if !slot.live || slot.gen != s.gen {
		return
	}
	*s.t.push() = event{
		phase: 'X',
		start: slot.start,
		dur:   s.t.now() - slot.start,
		track: slot.track,
		cat:   slot.cat,
		name:  slot.name,
		args:  s.t.store(slot.args, args),
	}
	slot.live = false
	clear(slot.args)
	s.t.free = append(s.t.free, s.idx)
}

// Active reports whether the span is open (begun on a live tracer and
// not yet ended).
func (s Span) Active() bool {
	if s.t == nil || s.idx >= len(s.t.open) {
		return false
	}
	slot := &s.t.open[s.idx]
	return slot.live && slot.gen == s.gen
}

// each calls fn, in place and in deterministic order, on every
// completed event and then on every still-open span rendered as a span
// ending at the export instant with a trailing state=running arg. Only
// the open-span events are built fresh. The first error stops the walk
// and is returned.
func (t *Tracer) each(fn func(ev *event) error) error {
	for _, c := range t.chunks {
		for i := range c {
			if err := fn(&c[i]); err != nil {
				return err
			}
		}
	}
	now := t.now()
	for i := range t.open {
		slot := &t.open[i]
		if !slot.live {
			continue
		}
		ev := event{
			phase: 'X',
			start: slot.start,
			dur:   now - slot.start,
			track: slot.track,
			cat:   slot.cat,
			name:  slot.name,
			args:  append(append([]Arg{}, slot.args...), S("state", "running")),
		}
		if err := fn(&ev); err != nil {
			return err
		}
	}
	return nil
}
