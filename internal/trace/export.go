package trace

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/jsonenc"
)

// Both exporters hand-encode their fixed schemas with package jsonenc
// into one reused line buffer behind a bufio.Writer. The bytes must
// equal what encoding/json gives for the struct-and-map schemas in
// export_ref_test.go: the same field order, the same omitted empty
// fields, and args written as a map would be, keys sorted and a later
// duplicate key winning.

// appendArgs appends args as a JSON object. scratch is reusable sort
// space; the grown scratch is returned for the next call.
func appendArgs(dst []byte, scratch, args []Arg) ([]byte, []Arg, error) {
	scratch = append(scratch[:0], args...)
	slices.SortStableFunc(scratch, func(a, b Arg) int { return strings.Compare(a.Key, b.Key) })
	dst = append(dst, '{')
	first := true
	for i, a := range scratch {
		if i+1 < len(scratch) && scratch[i+1].Key == a.Key {
			continue // a later duplicate overwrites this one
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = jsonenc.AppendString(dst, a.Key)
		dst = append(dst, ':')
		if !a.isNum {
			dst = jsonenc.AppendString(dst, a.str)
			continue
		}
		var err error
		if dst, err = jsonenc.AppendFloat(dst, a.num); err != nil {
			return dst, scratch, err
		}
	}
	return append(dst, '}'), scratch, nil
}

// WriteJSONL writes every recorded event (plus still-open spans, closed
// at the export instant) as one JSON object per line, timestamps in
// simulated microseconds:
//
//	{"type":"span","ts_us":…,"dur_us":…,"track":…,"cat":…,"name":…,"args":{…}}
//
// dur_us is omitted when zero (always, for "instant" events) and args
// when there are none.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var (
		buf     []byte
		scratch []Arg
	)
	err := t.each(func(ev *event) error {
		var err error
		buf = append(buf[:0], `{"type":"span","ts_us":`...)
		if ev.phase == 'i' {
			buf = append(buf[:0], `{"type":"instant","ts_us":`...)
		}
		buf = strconv.AppendInt(buf, ev.start.Microseconds(), 10)
		if dur := ev.dur.Microseconds(); dur != 0 {
			buf = append(buf, `,"dur_us":`...)
			buf = strconv.AppendInt(buf, dur, 10)
		}
		buf = append(buf, `,"track":`...)
		buf = jsonenc.AppendString(buf, ev.track)
		buf = append(buf, `,"cat":`...)
		buf = jsonenc.AppendString(buf, ev.cat)
		buf = append(buf, `,"name":`...)
		buf = jsonenc.AppendString(buf, ev.name)
		if len(ev.args) > 0 {
			buf = append(buf, `,"args":`...)
			if buf, scratch, err = appendArgs(buf, scratch, ev.args); err != nil {
				return err
			}
		}
		buf = append(buf, "}\n"...)
		_, err = bw.Write(buf)
		return err
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// WriteChromeTrace writes the events in Chrome trace_event JSON format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// which Perfetto and chrome://tracing load directly. Tracks are
// assigned thread IDs in order of first appearance and named via
// thread_name metadata, so the viewer shows one labelled row per track
// (PM, VM, TaskTracker, job). Simulated time maps to the trace's
// microsecond timebase.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}

	// Track registry in first-appearance order.
	tids := make(map[string]int)
	var tracks []string
	_ = t.each(func(ev *event) error {
		if _, ok := tids[ev.track]; !ok {
			tracks = append(tracks, ev.track)
			tids[ev.track] = len(tracks)
		}
		return nil
	})

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	var (
		buf     []byte
		scratch []Arg
	)
	// Every track has metadata and every event a registered track, so
	// the first thread_name entry is the only one without a separator.
	for i, track := range tracks {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		tid := strconv.Itoa(i + 1)
		buf = append(buf, `{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":`...)
		buf = append(buf, tid...)
		buf = append(buf, `,"args":{"name":`...)
		buf = jsonenc.AppendString(buf, track)
		buf = append(buf, "}},\n"...)
		buf = append(buf, `{"name":"thread_sort_index","ph":"M","ts":0,"pid":1,"tid":`...)
		buf = append(buf, tid...)
		buf = append(buf, `,"args":{"sort_index":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, "}}"...)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	err := t.each(func(ev *event) error {
		var err error
		buf = append(buf[:0], ",\n{\"name\":"...)
		buf = jsonenc.AppendString(buf, ev.name)
		if ev.cat != "" {
			buf = append(buf, `,"cat":`...)
			buf = jsonenc.AppendString(buf, ev.cat)
		}
		if ev.phase == 'X' {
			buf = append(buf, `,"ph":"X","ts":`...)
		} else {
			buf = append(buf, `,"ph":"i","ts":`...)
		}
		buf = strconv.AppendInt(buf, ev.start.Microseconds(), 10)
		if ev.phase == 'X' {
			buf = append(buf, `,"dur":`...)
			buf = strconv.AppendInt(buf, ev.dur.Microseconds(), 10)
		}
		buf = append(buf, `,"pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(tids[ev.track]), 10)
		if ev.phase != 'X' {
			buf = append(buf, `,"s":"t"`...)
		}
		if len(ev.args) > 0 {
			buf = append(buf, `,"args":`...)
			if buf, scratch, err = appendArgs(buf, scratch, ev.args); err != nil {
				return err
			}
		}
		buf = append(buf, '}')
		_, err = bw.Write(buf)
		return err
	})
	if err != nil {
		return err
	}
	if _, err := bw.WriteString("],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ExportFormat names a trace serialization.
type ExportFormat string

// Supported export formats.
const (
	FormatJSONL  ExportFormat = "jsonl"
	FormatChrome ExportFormat = "chrome"
)

// Write serializes the trace in the given format.
func (t *Tracer) Write(w io.Writer, format ExportFormat) error {
	switch format {
	case FormatJSONL:
		return t.WriteJSONL(w)
	case FormatChrome, "":
		return t.WriteChromeTrace(w)
	default:
		return fmt.Errorf("trace: unknown export format %q", format)
	}
}
