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
//   - Enabled tracing must be cheap. Completed events are encoded as
//     bytes when they are recorded, into a log that holds no pointers,
//     so the garbage collector never scans it: a fixed-width header,
//     then the track, category, name and args. The log's chunks are
//     allocated at their final size and never regrown, so recording
//     never copies earlier events; callers' variadic arg slices never
//     escape, and Instant and a Begin/End pair allocate nothing per call
//     on a warm tracer. Exporters decode the log in place, their
//     strings aliasing its bytes, and hand-encode each line with
//     package jsonenc, whose appenders reproduce encoding/json byte for
//     byte, into one reused buffer behind a bufio.Writer.
//
//   - Traces must be deterministic. Timestamps come exclusively from the
//     bound simulation clock (never the wall clock), events are stored in
//     emission order, and exporters serialize with stable field and key
//     ordering — two runs with the same seed produce byte-identical
//     files.
package trace

import (
	"encoding/binary"
	"math"
	"slices"
	"time"
	"unsafe"
)

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

// event is one decoded trace entry. Decoded from the log, it is a view:
// its strings alias the log's bytes and its args a buffer the decoder
// reuses for the next event.
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

// Each completed event is one record of the log: a fixed-width header,
// then the track, category and name bytes, then the args. All integers
// are little-endian. The header is
//
//	size u32 | phase u8 | nargs u32 | start i64 | dur i64 | len(track) u32 | len(cat) u32 | len(name) u32
//
// where size is the whole record's length, so a walk that needs only the
// track skips a record without decoding its args. Each arg is
//
//	kind u8 | len(key) u32 | len(value) u32 | key | value
//
// where a string arg's value is its bytes and a number's value is its 8
// IEEE 754 bytes (its len(value) field is 0).
const (
	offPhase = 4
	offNArgs = 5
	offStart = 9
	offDur   = 17
	offTrack = 25
	offCat   = 29
	offName  = 33
	hdrLen   = 37

	argHdrLen = 9
	argStr    = 's'
	argNum    = 'f'
)

// Chunk capacities of the log, in bytes: the first chunk is small so
// short-lived tracers stay cheap, and each later one doubles up to the
// cap. A record larger than the cap gets a chunk of its own size.
const (
	minChunk = 4 << 10
	maxChunk = 256 << 10
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
	// chunks is the log of completed events in emission order, encoded
	// as above. It holds no pointers, so the garbage collector never
	// scans it, and no caller slice or string is retained. Each chunk
	// is allocated at its final capacity and never regrown, so
	// recording never copies earlier events, and recorded bytes are
	// never rewritten, so decoded strings may alias them.
	chunks [][]byte
	n      int
	open   []openSpan
	free   []int
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

// record appends one completed event to the log, its args a followed
// by b.
func (t *Tracer) record(phase byte, start, dur time.Duration, track, cat, name string, a, b []Arg) {
	size := hdrLen + len(track) + len(cat) + len(name) + argsLen(a) + argsLen(b)
	last := len(t.chunks) - 1
	if last < 0 || cap(t.chunks[last])-len(t.chunks[last]) < size {
		prev := 0
		if last >= 0 {
			prev = cap(t.chunks[last])
		}
		t.chunks = append(t.chunks, make([]byte, 0, max(nextChunkCap(prev), size)))
		last++
	}
	le := binary.LittleEndian
	c := le.AppendUint32(t.chunks[last], uint32(size))
	c = append(c, phase)
	c = le.AppendUint32(c, uint32(len(a)+len(b)))
	c = le.AppendUint64(c, uint64(start))
	c = le.AppendUint64(c, uint64(dur))
	c = le.AppendUint32(c, uint32(len(track)))
	c = le.AppendUint32(c, uint32(len(cat)))
	c = le.AppendUint32(c, uint32(len(name)))
	c = append(append(append(c, track...), cat...), name...)
	for _, args := range [2][]Arg{a, b} {
		for i := range args {
			c = appendArg(c, &args[i])
		}
	}
	t.chunks[last] = c
	t.n++
}

// argsLen is the encoded length of args.
func argsLen(args []Arg) int {
	n := 0
	for i := range args {
		n += argHdrLen + len(args[i].Key)
		if args[i].isNum {
			n += 8
		} else {
			n += len(args[i].str)
		}
	}
	return n
}

// appendArg appends one encoded arg.
func appendArg(c []byte, a *Arg) []byte {
	le := binary.LittleEndian
	if a.isNum {
		c = append(c, argNum)
		c = le.AppendUint32(c, uint32(len(a.Key)))
		c = le.AppendUint32(c, 0)
		return le.AppendUint64(append(c, a.Key...), math.Float64bits(a.num))
	}
	c = append(c, argStr)
	c = le.AppendUint32(c, uint32(len(a.Key)))
	c = le.AppendUint32(c, uint32(len(a.str)))
	return append(append(c, a.Key...), a.str...)
}

// decode fills ev from the record rec, decoding its args into
// ev.args[:0]. The strings alias rec.
func decode(rec []byte, ev *event) {
	le := binary.LittleEndian
	ev.phase = rec[offPhase]
	ev.start = time.Duration(le.Uint64(rec[offStart:]))
	ev.dur = time.Duration(le.Uint64(rec[offDur:]))
	off := hdrLen
	ev.track, off = view(rec, off, le.Uint32(rec[offTrack:]))
	ev.cat, off = view(rec, off, le.Uint32(rec[offCat:]))
	ev.name, off = view(rec, off, le.Uint32(rec[offName:]))
	n := int(le.Uint32(rec[offNArgs:]))
	ev.args = slices.Grow(ev.args[:0], n)[:n]
	for i := range ev.args {
		a := &ev.args[i]
		kind, keyLen, valLen := rec[off], le.Uint32(rec[off+1:]), le.Uint32(rec[off+5:])
		a.Key, off = view(rec, off+argHdrLen, keyLen)
		if a.isNum = kind == argNum; a.isNum {
			a.num, a.str = math.Float64frombits(le.Uint64(rec[off:])), ""
			off += 8
		} else {
			a.num = 0
			a.str, off = view(rec, off, valLen)
		}
	}
}

// view returns the n bytes of rec at off as a string, without copying,
// and the offset after them. The log never rewrites recorded bytes, so
// the string stays valid for the life of the tracer.
func view(rec []byte, off int, n uint32) (string, int) {
	end := off + int(n)
	if n == 0 {
		return "", end
	}
	return unsafe.String(&rec[off], n), end
}

// records calls fn on every record of the log in emission order.
func (t *Tracer) records(fn func(rec []byte) error) error {
	for _, c := range t.chunks {
		for off := 0; off < len(c); {
			size := int(binary.LittleEndian.Uint32(c[off:]))
			if err := fn(c[off : off+size]); err != nil {
				return err
			}
			off += size
		}
	}
	return nil
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
	t.record('i', t.now(), 0, track, category, name, args, nil)
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
	s.t.record('X', slot.start, s.t.now()-slot.start, slot.track, slot.cat, slot.name, slot.args, args)
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

// each calls fn, in deterministic order, on every completed event
// decoded from the log and then on every still-open span rendered as a
// span ending at the export instant with a trailing state=running arg.
// fn gets one reused event: it may reorder ev.args but must not retain
// them. The first error stops the walk and is returned.
func (t *Tracer) each(fn func(ev *event) error) error {
	var ev event
	err := t.records(func(rec []byte) error {
		decode(rec, &ev)
		return fn(&ev)
	})
	if err != nil {
		return err
	}
	now := t.now()
	for i := range t.open {
		slot := &t.open[i]
		if !slot.live {
			continue
		}
		ev.phase, ev.start, ev.dur = 'X', slot.start, now-slot.start
		ev.track, ev.cat, ev.name = slot.track, slot.cat, slot.name
		ev.args = append(append(ev.args[:0], slot.args...), S("state", "running"))
		if err := fn(&ev); err != nil {
			return err
		}
	}
	return nil
}

// eachTrack calls fn on every event's track, in the order each walks
// them, without decoding args.
func (t *Tracer) eachTrack(fn func(track string)) {
	_ = t.records(func(rec []byte) error {
		track, _ := view(rec, hdrLen, binary.LittleEndian.Uint32(rec[offTrack:]))
		fn(track)
		return nil
	})
	for i := range t.open {
		if t.open[i].live {
			fn(t.open[i].track)
		}
	}
}
