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
//     so the garbage collector never scans it. Every length, count and
//     time in a record is a uvarint, and the track, category and arg
//     keys, a vocabulary of a few hundred strings in a whole run, are
//     ids in a per-tracer intern table, so a typical event takes well
//     under a hundred bytes; names and string arg values, which are
//     mostly unique, stay inline. The log's chunks are allocated at
//     their final size and never regrown, so recording never copies
//     earlier events; callers' variadic arg slices never escape, and
//     Instant and a Begin/End pair allocate nothing per call on a warm
//     tracer. Exporters decode the log in place, their strings aliasing
//     its bytes or the intern table, and hand-encode each line with
//     package jsonenc, whose appenders reproduce encoding/json byte for
//     byte, into one reused buffer behind a bufio.Writer; an interned
//     string's JSON is encoded once, when it is interned.
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
	"strings"
	"time"
	"unsafe"

	"repro/internal/jsonenc"
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

// symbol is one interned string and its JSON encoding, which the
// exporters copy instead of escaping the string again.
type symbol struct {
	str  string
	json string
}

// event is one decoded trace entry. Decoded from the log, it is a view:
// its name and string arg values alias the log's bytes, and its args
// live in a buffer the decoder reuses for the next event.
type event struct {
	phase byte // 'X' complete span, 'i' instant
	start time.Duration
	dur   time.Duration
	track uint32 // symbol ids
	cat   uint32
	name  string
	args  []evArg
}

// evArg is one decoded arg and the JSON encoding of its key. keyJSON is
// empty for the args of a still-open span, whose keys are interned only
// when the span ends.
type evArg struct {
	Arg
	keyJSON string
}

// openSpan is a begun-but-unfinished span. Slots are reused through a
// free list; gen guards stale Span handles after reuse. args is the
// slot's own buffer, reused by every span that occupies the slot.
type openSpan struct {
	start time.Duration
	track uint32 // symbol ids, interned at Begin
	cat   uint32
	name  string
	args  []Arg
	gen   uint32
	live  bool
}

// Each completed event is one record of the log. Every integer in it is
// a uvarint (encoding/binary), so the small lengths, counts and ids that
// make up most of a record take one byte each:
//
//	size | phase u8 | track | cat | start | dur | len(name) | name | nargs | args
//
// size is the length of the rest of the record, so a walk that needs
// only the track skips a record without decoding it. track and cat are
// ids in the tracer's intern table, and start and dur are nanoseconds.
// Each arg is
//
//	key<<1 | isNum, then a number's 8 IEEE 754 little-endian bytes or a string's len(value) | value
//
// where key is the id of the arg's key. Tracks, categories and keys
// come from a small vocabulary (hundreds of tracks, a handful of
// categories and a few dozen keys in a whole run), so each is stored
// once in the table. Names and string values are mostly unique (a task
// attempt, a block), so they stay inline: interning them would grow
// the table with the trace.
const (
	argNum = 1 // the isNum bit of an arg's key tag

	// maxVarint bounds a uvarint's length; maxFixed bounds the bytes
	// of a record besides its name and args, and maxArgFixed those of
	// an arg besides its string value.
	maxVarint   = binary.MaxVarintLen64
	maxFixed    = 1 + 7*maxVarint
	maxArgFixed = 2*maxVarint + 8
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
	// ids and syms are the intern table: syms[id] is the string with
	// that id, ids in first-seen order, and ids maps each string back.
	// Both hold the table's own copies of the strings.
	ids  map[string]uint32
	syms []symbol
	// hints caches ids by string address: callers pass the same few
	// literals and stored names on every call, and a hit, confirmed by
	// comparing the strings, costs less than the map lookup.
	hints [hintSlots]hint
	open  []openSpan
	free  []int
}

// New returns an empty tracer. The clock may be nil initially (events
// stamp at zero) and bound later with SetClock — deployment helpers
// create the engine after the user creates the tracer.
func New(clock Clock) *Tracer {
	return &Tracer{clock: clock, ids: make(map[string]uint32)}
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

// hint is a cached intern result: the address of the bytes of a
// string that had the id. An address alone proves nothing (the bytes
// may since have been freed and reused), so intern compares the strings
// before trusting a hit.
type hint struct {
	addr uintptr
	id   uint32
}

// hintBits sets the size of the hint cache. With 128 slots, 97% of the
// lookups of perfbench's faults workload (818 tracks) hit.
const (
	hintBits  = 7
	hintSlots = 1 << hintBits
)

// intern returns the id of s in the intern table, adding a copy of s
// on its first sight.
func (t *Tracer) intern(s string) uint32 {
	addr := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	h := &t.hints[(addr*0x9e3779b97f4a7c15)>>(64-hintBits)]
	if addr != 0 && h.addr == addr && t.syms[h.id].str == s {
		return h.id
	}
	id, ok := t.ids[s]
	if !ok {
		id = uint32(len(t.syms))
		s := strings.Clone(s)
		t.ids[s] = id
		t.syms = append(t.syms, symbol{str: s, json: string(jsonenc.AppendString(nil, s))})
	}
	h.addr, h.id = addr, id
	return id
}

// record appends one completed event to the log, its args a followed
// by b.
func (t *Tracer) record(phase byte, start, dur time.Duration, track, cat uint32, name string, a, b []Arg) {
	bound := maxFixed + len(name) + argsBound(a) + argsBound(b)
	last := len(t.chunks) - 1
	if last < 0 || cap(t.chunks[last])-len(t.chunks[last]) < bound {
		prev := 0
		if last >= 0 {
			prev = cap(t.chunks[last])
		}
		t.chunks = append(t.chunks, make([]byte, 0, max(nextChunkCap(prev), bound)))
		last++
	}
	c := t.chunks[last]
	at := len(c)
	c = append(c, 0, phase) // a one-byte size, widened below if need be
	c = binary.AppendUvarint(c, uint64(track))
	c = binary.AppendUvarint(c, uint64(cat))
	c = binary.AppendUvarint(c, uint64(start))
	c = binary.AppendUvarint(c, uint64(dur))
	c = binary.AppendUvarint(c, uint64(len(name)))
	c = append(c, name...)
	c = binary.AppendUvarint(c, uint64(len(a)+len(b)))
	for _, args := range [2][]Arg{a, b} {
		for i := range args {
			c = t.appendArg(c, &args[i])
		}
	}
	if size := len(c) - at - 1; size < 0x80 {
		c[at] = byte(size)
	} else {
		var prefix [maxVarint]byte
		w := binary.PutUvarint(prefix[:], uint64(size))
		c = c[:len(c)+w-1]
		copy(c[at+w:], c[at+1:at+1+size])
		copy(c[at:], prefix[:w])
	}
	t.chunks[last] = c
	t.n++
}

// argsBound bounds the encoded length of args.
func argsBound(args []Arg) int {
	n := 0
	for i := range args {
		n += maxArgFixed + len(args[i].str)
	}
	return n
}

// appendArg appends one encoded arg, interning its key.
func (t *Tracer) appendArg(c []byte, a *Arg) []byte {
	tag := uint64(t.intern(a.Key)) << 1
	if a.isNum {
		c = binary.AppendUvarint(c, tag|argNum)
		return binary.LittleEndian.AppendUint64(c, math.Float64bits(a.num))
	}
	c = binary.AppendUvarint(c, tag)
	c = binary.AppendUvarint(c, uint64(len(a.str)))
	return append(c, a.str...)
}

// uvarint decodes the uvarint at b[off:] and returns it and the offset
// after it. The one-byte case, almost every uvarint in the log, is
// decoded inline.
func uvarint(b []byte, off int) (uint64, int) {
	if v := b[off]; v < 0x80 {
		return uint64(v), off + 1
	}
	v, n := binary.Uvarint(b[off:])
	return v, off + n
}

// decode fills ev from the record rec (without its size), decoding its
// args into ev.args[:0]. The name and string values alias rec.
func (t *Tracer) decode(rec []byte, ev *event) {
	ev.phase = rec[0]
	v, off := uvarint(rec, 1)
	ev.track = uint32(v)
	v, off = uvarint(rec, off)
	ev.cat = uint32(v)
	v, off = uvarint(rec, off)
	ev.start = time.Duration(v)
	v, off = uvarint(rec, off)
	ev.dur = time.Duration(v)
	v, off = uvarint(rec, off)
	ev.name, off = view(rec, off, int(v))
	v, off = uvarint(rec, off)
	n := int(v)
	ev.args = slices.Grow(ev.args[:0], n)[:n]
	for i := range ev.args {
		a := &ev.args[i]
		v, off = uvarint(rec, off)
		key := &t.syms[v>>1]
		a.Key, a.keyJSON = key.str, key.json
		if a.isNum = v&argNum != 0; a.isNum {
			a.num, a.str = math.Float64frombits(binary.LittleEndian.Uint64(rec[off:])), ""
			off += 8
		} else {
			a.num = 0
			v, off = uvarint(rec, off)
			a.str, off = view(rec, off, int(v))
		}
	}
}

// view returns the n bytes of rec at off as a string, without copying,
// and the offset after them. The log never rewrites recorded bytes, so
// the string stays valid for the life of the tracer.
func view(rec []byte, off, n int) (string, int) {
	end := off + n
	if n == 0 {
		return "", end
	}
	return unsafe.String(&rec[off], n), end
}

// records calls fn on every record of the log, without its size, in
// emission order.
func (t *Tracer) records(fn func(rec []byte) error) error {
	for _, c := range t.chunks {
		for off := 0; off < len(c); {
			size, at := uvarint(c, off)
			off = at + int(size)
			if err := fn(c[at:off]); err != nil {
				return err
			}
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
	t.record('i', t.now(), 0, t.intern(track), t.intern(category), name, args, nil)
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
	slot.track, slot.cat, slot.name = t.intern(track), t.intern(category), name
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
		t.decode(rec, &ev)
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
		ev.args = ev.args[:0]
		for _, a := range slot.args {
			ev.args = append(ev.args, evArg{Arg: a})
		}
		ev.args = append(ev.args, evArg{Arg: S("state", "running")})
		if err := fn(&ev); err != nil {
			return err
		}
	}
	return nil
}

// eachTrack calls fn on every event's track id, in the order each walks
// them, without decoding the rest of the event.
func (t *Tracer) eachTrack(fn func(track uint32)) {
	_ = t.records(func(rec []byte) error {
		track, _ := uvarint(rec, 1)
		fn(uint32(track))
		return nil
	})
	for i := range t.open {
		if t.open[i].live {
			fn(t.open[i].track)
		}
	}
}
