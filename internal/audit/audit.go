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
// The log is a ring buffer: once capacity is reached the oldest
// records are dropped (Dropped reports how many) so long simulations
// cannot grow without bound. The ring's slots live in fixed chunks,
// each allocated as the ring first reaches it and never regrown. Add
// copies a record's candidates into its slot's own reusable buffer, so
// callers may reuse their candidate slices and a wrapped ring allocates
// nothing per record; Records and Last deep-copy what they return.
// Records export as JSONL with a fixed field order, making same-seed
// exports byte-identical.
package audit

import (
	"bufio"
	"io"
	"strconv"
	"time"

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

// chunkLen is the number of ring slots in one chunk.
const chunkLen = 1024

// Log is a bounded, deterministic decision log. It is not safe for
// concurrent use; like the rest of the simulation it belongs to a
// single engine goroutine.
type Log struct {
	clock Clock
	cap   int
	seq   uint64
	// chunks hold the ring's slots, slot i at
	// chunks[i/chunkLen][i%chunkLen]. Record seq lives in slot
	// (seq-1)%cap. A slot's Candidates is its own buffer, reused by
	// every record that occupies the slot.
	chunks [][]Record
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

// Add appends one decision record. The candidates are copied into the
// log, so the caller may reuse or modify its slice afterwards; callers
// should order them deterministically (e.g. by score, ties by name)
// since record bytes feed byte-compared exports.
func (l *Log) Add(subsystem, action, subject, decision, reason string, candidates ...Candidate) {
	if l == nil {
		return
	}
	i := int(l.seq % uint64(l.cap))
	if i/chunkLen == len(l.chunks) { // only while the ring first fills
		l.chunks = append(l.chunks, make([]Record, min(chunkLen, l.cap-i)))
	}
	l.seq++
	r := l.slot(i)
	old := r.Candidates
	*r = Record{
		Seq:        l.seq,
		Subsystem:  subsystem,
		Action:     action,
		Subject:    subject,
		Decision:   decision,
		Reason:     reason,
		Candidates: append(old[:0], candidates...),
	}
	if n := len(candidates); n < len(old) {
		clear(old[n:]) // drop the previous occupant's strings
	}
	if l.clock != nil {
		r.At = l.clock.Now()
	}
}

func (l *Log) slot(i int) *Record { return &l.chunks[i/chunkLen][i%chunkLen] }

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

// each calls fn on the retained records in place, oldest first. The
// first error stops the walk and is returned.
func (l *Log) each(fn func(r *Record) error) error {
	start := 0
	if l.seq > uint64(l.cap) {
		start = int(l.seq % uint64(l.cap))
	}
	for k, n := 0, l.Len(); k < n; k++ {
		i := start + k
		if i >= l.cap {
			i -= l.cap
		}
		if err := fn(l.slot(i)); err != nil {
			return err
		}
	}
	return nil
}

// Records returns deep copies of the retained records, oldest first:
// mutating the result, its candidates included, does not affect the
// log.
func (l *Log) Records() []Record {
	if l.Len() == 0 {
		return nil
	}
	total := 0
	_ = l.each(func(r *Record) error { total += len(r.Candidates); return nil })
	out := make([]Record, 0, l.Len())
	cands := make([]Candidate, 0, total)
	_ = l.each(func(r *Record) error {
		out = append(out, copyRecord(r, &cands))
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
	r := l.slot(int((l.seq - 1) % uint64(l.cap)))
	cands := make([]Candidate, 0, len(r.Candidates))
	return copyRecord(r, &cands), true
}

// copyRecord returns a copy of r whose candidates are appended to
// *cands, which must have room for them so earlier copies stay intact.
func copyRecord(r *Record, cands *[]Candidate) Record {
	c := *r
	c.Candidates = nil
	if len(r.Candidates) > 0 {
		lo := len(*cands)
		*cands = append(*cands, r.Candidates...)
		c.Candidates = (*cands)[lo:len(*cands):len(*cands)]
	}
	return c
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
	err := l.each(func(r *Record) error {
		var err error
		if buf, err = appendRecord(buf[:0], r); err != nil {
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
func appendRecord(b []byte, r *Record) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, r.Seq, 10)
	b = append(b, `,"ts_us":`...)
	b = strconv.AppendInt(b, r.At.Microseconds(), 10)
	b = append(b, `,"subsystem":`...)
	b = jsonenc.AppendString(b, r.Subsystem)
	b = append(b, `,"action":`...)
	b = jsonenc.AppendString(b, r.Action)
	b = append(b, `,"subject":`...)
	b = jsonenc.AppendString(b, r.Subject)
	b = append(b, `,"decision":`...)
	b = jsonenc.AppendString(b, r.Decision)
	if r.Reason != "" {
		b = append(b, `,"reason":`...)
		b = jsonenc.AppendString(b, r.Reason)
	}
	if len(r.Candidates) > 0 {
		b = append(b, `,"candidates":[`...)
		for i, c := range r.Candidates {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"name":`...)
			b = jsonenc.AppendString(b, c.Name)
			b = append(b, `,"score":`...)
			var err error
			if b, err = jsonenc.AppendFloat(b, c.Score); err != nil {
				return b, err
			}
			if c.Chosen {
				b = append(b, `,"chosen":true`...)
			}
			if c.Note != "" {
				b = append(b, `,"note":`...)
				b = jsonenc.AppendString(b, c.Note)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}
