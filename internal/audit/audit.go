// Package audit records scheduler decisions as structured, sim-clock
// stamped records: which candidates were considered, how they scored,
// and why the winner won (or why nothing was done). It is the
// explainability companion to package trace — spans say *what*
// happened, audit records say *why*.
//
// Like trace.Tracer, a nil *Log accepts the full API as a no-op, so
// subsystems hold a *Log and call it unconditionally. Recording never
// schedules events, never reads wall clocks, and never perturbs the
// simulation: a run with auditing enabled is byte-identical to one
// without.
//
// The log is a ring bounded by record count: once capacity is reached
// the oldest records are dropped (Dropped reports how many) so long
// simulations cannot grow without bound. Add encodes each record into
// a byte stream cut into fixed chunks, which hold no pointers, so the
// garbage collector never scans them, and which a record may straddle,
// so they are filled to the last byte whatever the records' sizes.
// Subsystems, actions and candidate notes, a vocabulary of call-site
// constants, are ids in a per-log intern table; everything else stays
// inline. Add copies every string it is given, so callers may reuse
// their candidate slices and pass views of their own buffers, and a
// wrapped ring recycles its drained chunks and allocates nothing per
// record. Records, Last and Filter return deep copies. Records export
// as JSONL with a fixed field order, making same-seed exports
// byte-identical.
package audit

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"repro/internal/jsonenc"
)

// DefaultCap is the ring-buffer capacity used when New is given a
// non-positive capacity.
const DefaultCap = 16384

// Clock is anything that can report the current simulated time.
// *sim.Engine satisfies it.
type Clock interface {
	Now() time.Duration
}

// Candidate is one option the scheduler weighed while making a
// decision. Score semantics are decision-specific (estimated JCT
// seconds for placement, benefit for DRM grants, progress rate for
// speculation) and stated in Note.
type Candidate struct {
	Name   string
	Score  float64
	Chosen bool
	Note   string
}

// Record is one audited decision.
type Record struct {
	Seq        uint64        // 1-based, monotonic, survives ring drops
	At         time.Duration // simulated time of the decision
	Subsystem  string        // "phase1", "drm", "ips", "mapred", "cluster", "fault"
	Action     string        // e.g. "place", "assign", "speculate", "migrate-start"
	Subject    string        // what the decision is about (job, task, VM, tracker)
	Decision   string        // what was decided ("native", tracker name, "none", ...)
	Reason     string        // why, in one human-readable clause
	Candidates []Candidate   // options weighed, if any
}

// Each record is one stretch of the log's byte stream. Every integer
// is a uvarint (encoding/binary) and every string a uvarint length and
// its bytes:
//
//	size | at | subsystem | action | subject | decision | reason | ncands | candidates
//
// size is the length of the rest of the record and at is nanoseconds
// of simulated time. subsystem and action are ids in the log's intern
// table. Each candidate is
//
//	name | score, 8 IEEE 754 little-endian bytes | note<<1 | chosen
//
// where note is the id of the candidate's note. Seq is not stored: the
// retained records are numbered consecutively up to the log's count.
const (
	maxVarint = binary.MaxVarintLen64
	chosenBit = 1
)

// chunkSize is the byte capacity of every chunk of the log.
const chunkSize = 16 << 10

// Log is a bounded, deterministic decision log. It is not safe for
// concurrent use, reads included; like the rest of the simulation it
// belongs to a single engine goroutine.
type Log struct {
	clock Clock
	cap   int
	seq   uint64
	// chunks is the encoded ring: a byte stream cut into chunkSize
	// pieces, chunks[0][0] at stream offset base. The retained records
	// lie in [head, tail) and the newest starts at last. Dropping the
	// oldest record advances head, and a chunk it leaves behind becomes
	// spare, which the tail takes before allocating a chunk. spare is
	// kept only while the ring's slack (the consumed bytes of the first
	// chunk and the unwritten ones of the last) is at most a chunk, so
	// the chunks never hold more than the live bytes plus two chunks.
	chunks                 [][]byte
	base, head, last, tail uint64
	spare                  []byte
	// syms interns subsystems, actions and candidate notes.
	syms jsonenc.Symbols
	// enc holds the record Add is encoding and span a record that a
	// reader gathers from across chunks.
	enc  []byte
	span []byte
}

// New returns a Log holding at most capacity records (DefaultCap if
// capacity <= 0). The clock is installed later via SetClock, mirroring
// how tracers are wired.
func New(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Log{cap: capacity}
}

// SetClock installs the time source used to stamp records.
func (l *Log) SetClock(c Clock) {
	if l == nil {
		return
	}
	l.clock = c
}

// Add appends one decision record. Every string and candidate is
// copied into the log, so the caller may reuse or modify its slice and
// buffers afterwards; callers should order candidates
// deterministically (e.g. by score, ties by name) since record bytes
// feed byte-compared exports. Subsystem, action and the candidates'
// notes are interned and must come from a small fixed vocabulary.
func (l *Log) Add(subsystem, action, subject, decision, reason string, candidates ...Candidate) {
	if l == nil {
		return
	}
	var at time.Duration
	if l.clock != nil {
		at = l.clock.Now()
	}
	b := append(l.enc[:0], make([]byte, maxVarint)...) // room for the size
	b = binary.AppendUvarint(b, uint64(at))
	b = binary.AppendUvarint(b, uint64(l.syms.Intern(subsystem)))
	b = binary.AppendUvarint(b, uint64(l.syms.Intern(action)))
	b = appendString(b, subject)
	b = appendString(b, decision)
	b = appendString(b, reason)
	b = binary.AppendUvarint(b, uint64(len(candidates)))
	var note string // a record's candidates mostly share one note
	var noteID uint32
	for i := range candidates {
		c := &candidates[i]
		b = appendString(b, c.Name)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Score))
		if i == 0 || c.Note != note {
			note, noteID = c.Note, l.syms.Intern(c.Note)
		}
		tag := uint64(noteID) << 1
		if c.Chosen {
			tag |= chosenBit
		}
		b = binary.AppendUvarint(b, tag)
	}
	var size [maxVarint]byte
	n := binary.PutUvarint(size[:], uint64(len(b)-maxVarint))
	copy(b[maxVarint-n:], size[:n])
	l.enc = b

	l.seq++
	if l.seq > uint64(l.cap) {
		l.dropOldest()
	}
	l.last = l.tail
	l.write(b[maxVarint-n:])
	if l.spare != nil && l.slack() > chunkSize {
		l.spare = nil
	}
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// dropOldest advances head past the oldest record, releasing every
// chunk it leaves behind.
func (l *Log) dropOldest() {
	size, p := l.uvarintAt(l.head)
	l.head = p + size
	for l.head-l.base >= chunkSize {
		l.spare = l.chunks[0]
		n := copy(l.chunks, l.chunks[1:])
		l.chunks[n] = nil
		l.chunks = l.chunks[:n]
		l.base += chunkSize
	}
}

// write appends p to the stream, starting chunks as the tail needs
// them.
func (l *Log) write(p []byte) {
	for len(p) > 0 {
		k, off := l.locate(l.tail)
		if k == len(l.chunks) {
			c := l.spare
			if c == nil {
				c = make([]byte, chunkSize)
			}
			l.spare = nil
			l.chunks = append(l.chunks, c)
		}
		n := copy(l.chunks[k][off:], p)
		p = p[n:]
		l.tail += uint64(n)
	}
}

// slack is the number of chunk bytes outside [head, tail).
func (l *Log) slack() uint64 {
	return uint64(len(l.chunks))*chunkSize - (l.tail - l.head)
}

// locate returns the chunk and offset of stream offset p.
func (l *Log) locate(p uint64) (k, off int) {
	return int((p - l.base) / chunkSize), int((p - l.base) % chunkSize)
}

// uvarintAt decodes the uvarint at stream offset p, which may straddle
// chunks, and returns it and the offset after it.
func (l *Log) uvarintAt(p uint64) (v, next uint64) {
	for shift := 0; ; shift += 7 {
		k, off := l.locate(p)
		b := l.chunks[k][off]
		p++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, p
		}
	}
}

// Len reports how many records are currently retained.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return int(min(l.seq, uint64(l.cap)))
}

// Dropped reports how many records the ring has discarded.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.seq - uint64(l.Len())
}

// entry is one decoded record. It is a view: its strings alias the
// log's bytes (or span), and its candidates live in a buffer the
// decoder reuses for the next record.
type entry struct {
	seq                       uint64
	at                        time.Duration
	subsystem, action         *jsonenc.Symbol
	subject, decision, reason string
	cands                     []cand
}

type cand struct {
	name   string
	score  float64
	note   *jsonenc.Symbol
	chosen bool
}

// decode fills e from the record at stream offset p, decoding its
// candidates into e.cands[:0], and returns the offset after it. A
// record within one chunk is decoded in place; one that straddles
// chunks is first gathered into span.
func (l *Log) decode(p uint64, e *entry) uint64 {
	size, p := l.uvarintAt(p)
	next := p + size
	k, off := l.locate(p)
	rec := l.chunks[k][off:min(off+int(size), chunkSize)]
	if len(rec) < int(size) {
		rec = l.span[:0]
		for q := p; q < next; {
			k, off := l.locate(q)
			piece := l.chunks[k][off:min(off+int(next-q), chunkSize)]
			rec = append(rec, piece...)
			q += uint64(len(piece))
		}
		l.span = rec
	}
	v, o := uvarint(rec, 0)
	e.at = time.Duration(v)
	v, o = uvarint(rec, o)
	e.subsystem = l.syms.At(uint32(v))
	v, o = uvarint(rec, o)
	e.action = l.syms.At(uint32(v))
	e.subject, o = view(rec, o)
	e.decision, o = view(rec, o)
	e.reason, o = view(rec, o)
	v, o = uvarint(rec, o)
	n := int(v)
	e.cands = slices.Grow(e.cands[:0], n)[:n]
	for i := range e.cands {
		c := &e.cands[i]
		c.name, o = view(rec, o)
		c.score = math.Float64frombits(binary.LittleEndian.Uint64(rec[o:]))
		v, o = uvarint(rec, o+8)
		c.note, c.chosen = l.syms.At(uint32(v>>1)), v&chosenBit != 0
	}
	return next
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

// view decodes the string at rec[off:] without copying it and returns
// it and the offset after it.
func view(rec []byte, off int) (string, int) {
	v, off := uvarint(rec, off)
	n := int(v)
	if n == 0 {
		return "", off
	}
	return unsafe.String(&rec[off], n), off + n
}

// each calls fn on the retained records, oldest first, decoded into
// one reused entry. The first error stops the walk and is returned.
func (l *Log) each(fn func(e *entry) error) error {
	var e entry
	e.seq = l.seq - uint64(l.Len())
	for p := l.head; p < l.tail; {
		e.seq++
		p = l.decode(p, &e)
		if err := fn(&e); err != nil {
			return err
		}
	}
	return nil
}

// record returns a deep copy of e. Interned strings are the table's
// own and never change; the others alias recycled bytes, so they are
// cloned.
func (e *entry) record() Record {
	r := Record{
		Seq:       e.seq,
		At:        e.at,
		Subsystem: e.subsystem.Str,
		Action:    e.action.Str,
		Subject:   strings.Clone(e.subject),
		Decision:  strings.Clone(e.decision),
		Reason:    strings.Clone(e.reason),
	}
	if len(e.cands) > 0 {
		r.Candidates = make([]Candidate, len(e.cands))
		for i, c := range e.cands {
			r.Candidates[i] = Candidate{Name: strings.Clone(c.name), Score: c.score, Chosen: c.chosen, Note: c.note.Str}
		}
	}
	return r
}

// Records returns deep copies of the retained records, oldest first:
// mutating the result, its candidates included, does not affect the
// log.
func (l *Log) Records() []Record {
	if l.Len() == 0 {
		return nil
	}
	out := make([]Record, 0, l.Len())
	_ = l.each(func(e *entry) error {
		out = append(out, e.record())
		return nil
	})
	return out
}

// Last returns a deep copy of the newest record, or false if the log
// holds none.
func (l *Log) Last() (Record, bool) {
	if l.Len() == 0 {
		return Record{}, false
	}
	e := entry{seq: l.seq}
	l.decode(l.last, &e)
	return e.record(), true
}

// Filter returns deep copies of the retained records matching pred,
// oldest first.
func (l *Log) Filter(pred func(Record) bool) []Record {
	var out []Record
	for _, r := range l.Records() {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// WriteJSONL writes the retained records as one JSON object per line,
// oldest first. Timestamps are integer microseconds of simulated time
// (ts_us), matching the trace JSONL convention. The field order is
// fixed, and reason, candidates and a candidate's chosen and note are
// omitted when empty:
//
//	{"seq":…,"ts_us":…,"subsystem":…,"action":…,"subject":…,"decision":…,"reason":…,
//	 "candidates":[{"name":…,"score":…,"chosen":true,"note":…},…]}
//
// The bytes are those encoding/json gives for that schema. Output is
// buffered; a record that cannot be encoded (a NaN or infinite score)
// stops the export with an error after the records before it.
func (l *Log) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var buf []byte
	err := l.each(func(e *entry) error {
		var err error
		if buf, err = appendRecord(buf[:0], e); err != nil {
			_ = bw.Flush() // still deliver the records before this one
			return err
		}
		_, err = bw.Write(buf)
		return err
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// appendRecord appends one record's JSONL line.
func appendRecord(b []byte, e *entry) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.seq, 10)
	b = append(b, `,"ts_us":`...)
	b = strconv.AppendInt(b, e.at.Microseconds(), 10)
	b = append(b, `,"subsystem":`...)
	b = append(b, e.subsystem.JSON...)
	b = append(b, `,"action":`...)
	b = append(b, e.action.JSON...)
	b = append(b, `,"subject":`...)
	b = jsonenc.AppendString(b, e.subject)
	b = append(b, `,"decision":`...)
	b = jsonenc.AppendString(b, e.decision)
	if e.reason != "" {
		b = append(b, `,"reason":`...)
		b = jsonenc.AppendString(b, e.reason)
	}
	if len(e.cands) > 0 {
		b = append(b, `,"candidates":[`...)
		for i := range e.cands {
			c := &e.cands[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"name":`...)
			b = jsonenc.AppendString(b, c.name)
			b = append(b, `,"score":`...)
			var err error
			if b, err = jsonenc.AppendFloat(b, c.score); err != nil {
				return b, err
			}
			if c.chosen {
				b = append(b, `,"chosen":true`...)
			}
			if c.note.Str != "" {
				b = append(b, `,"note":`...)
				b = append(b, c.note.JSON...)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}
