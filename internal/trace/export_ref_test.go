package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// The encoding/json schemas below are the reference the hand-written
// exporters must match byte for byte: they are the structs and the
// args map the exporters were first written against.

// argsMap converts an Arg list to a map for JSON encoding. encoding/json
// marshals map keys in sorted order, and a later duplicate key
// overwrites an earlier one.
func argsMap(args []Arg) map[string]any {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]any, len(args))
	for _, a := range args {
		if a.isNum {
			m[a.Key] = a.num
		} else {
			m[a.Key] = a.str
		}
	}
	return m
}

type jsonlEvent struct {
	Type  string         `json:"type"` // "span" or "instant"
	TsUs  int64          `json:"ts_us"`
	DurUs int64          `json:"dur_us,omitempty"`
	Track string         `json:"track"`
	Cat   string         `json:"cat"`
	Name  string         `json:"name"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   *int64         `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func refWriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		typ := "span"
		if ev.Instant {
			typ = "instant"
		}
		if err := enc.Encode(jsonlEvent{
			Type:  typ,
			TsUs:  ev.Start.Microseconds(),
			DurUs: ev.Duration.Microseconds(),
			Track: ev.Track,
			Cat:   ev.Category,
			Name:  ev.Name,
			Args:  argsMap(ev.Args),
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func refWriteChrome(w io.Writer, events []Event) error {
	tids := make(map[string]int)
	var tracks []string
	for _, ev := range events {
		if _, ok := tids[ev.Track]; !ok {
			tracks = append(tracks, ev.Track)
			tids[ev.Track] = len(tracks)
		}
	}
	bw := bufio.NewWriter(w)
	io.WriteString(bw, `{"traceEvents":[`)
	first := true
	emit := func(ce chromeEvent) error {
		raw, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		_, err = bw.Write(raw)
		return err
	}
	for i, track := range tracks {
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1,
			Args: map[string]any{"name": track}}); err != nil {
			return err
		}
		if err := emit(chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: 1, Tid: i + 1,
			Args: map[string]any{"sort_index": i}}); err != nil {
			return err
		}
	}
	for _, ev := range events {
		ce := chromeEvent{Name: ev.Name, Cat: ev.Category, Ts: ev.Start.Microseconds(),
			Pid: 1, Tid: tids[ev.Track], Args: argsMap(ev.Args)}
		if ev.Instant {
			ce.Ph, ce.Scope = "i", "t"
		} else {
			dur := ev.Duration.Microseconds()
			ce.Ph, ce.Dur = "X", &dur
		}
		if err := emit(ce); err != nil {
			return err
		}
	}
	io.WriteString(bw, "],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

// Strings that exercise every escaping rule, including the empty
// string (an omitted Chrome category).
var trickyStrings = []string{
	"", "pm-0", "vm-3", "tt-7", "job:Sort-12", "map-0",
	"a<b>&c", `q"uo\te`, "ctl\x00\x01\x1f\x7f", "ws\b\f\n\r\t",
	"bad\xff\xfeutf8", "cut\xe2\x82", "ls\u2028ps\u2029", "\u00e9\u65e5\U0001F600",
}

var trickyFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e21, -1e21, 5e-324, 1e-6,
	9.99e20, 1.5e-10, 2.5e-300, 3.25, -42, 1.0 / 3, 1e100,
}

// tracerModel drives a Tracer with a seeded random mix of instants and
// spans while keeping its own list of the events the tracer must
// report, open spans included in slot order.
type tracerModel struct {
	rng   *rand.Rand
	clk   *fakeClock
	tr    *Tracer
	done  []Event
	slots []*Event // open span per tracer slot, nil when free
	span  []Span
	free  []int
}

func (m *tracerModel) str() string { return trickyStrings[m.rng.Intn(len(trickyStrings))] }

func (m *tracerModel) args(max int) []Arg {
	var out []Arg
	keys := []string{"a", "b", "job", "<k>", "z\u2028", ""}
	for i, n := 0, m.rng.Intn(max+1); i < n; i++ {
		key := keys[m.rng.Intn(len(keys))]
		switch m.rng.Intn(3) {
		case 0:
			out = append(out, S(key, m.str()))
		case 1:
			out = append(out, F(key, trickyFloats[m.rng.Intn(len(trickyFloats))]))
		default:
			out = append(out, F(key, m.rng.NormFloat64()*math.Pow(10, float64(m.rng.Intn(40)-20))))
		}
	}
	return out
}

func (m *tracerModel) step() {
	// Advance by whole seconds, microseconds or sub-microsecond
	// amounts, so some spans round to a zero duration.
	switch m.rng.Intn(3) {
	case 0:
		m.clk.t += time.Duration(m.rng.Intn(3)) * time.Second
	case 1:
		m.clk.t += time.Duration(m.rng.Intn(2000)) * time.Microsecond
	default:
		m.clk.t += time.Duration(m.rng.Intn(900)) * time.Nanosecond
	}
	switch op := m.rng.Intn(10); {
	case op < 4:
		track, cat, name, args := m.str(), m.str(), m.str(), m.args(5)
		m.tr.Instant(track, cat, name, args...)
		m.done = append(m.done, Event{Instant: true, Start: m.clk.t, Track: track,
			Category: cat, Name: name, Args: args})
	case op < 7:
		track, cat, name, args := m.str(), m.str(), m.str(), m.args(4)
		sp := m.tr.Begin(track, cat, name, args...)
		idx := len(m.slots)
		if n := len(m.free); n > 0 {
			idx, m.free = m.free[n-1], m.free[:n-1]
		} else {
			m.slots = append(m.slots, nil)
			m.span = append(m.span, Span{})
		}
		m.slots[idx] = &Event{Start: m.clk.t, Track: track, Category: cat, Name: name, Args: args}
		m.span[idx] = sp
	default:
		idx := m.rng.Intn(len(m.slots) + 1)
		if idx == len(m.slots) || m.slots[idx] == nil {
			if idx < len(m.span) {
				m.span[idx].End(S("stale", "end")) // must be a no-op
			}
			return
		}
		extra := m.args(3)
		m.span[idx].End(extra...)
		ev := *m.slots[idx]
		ev.Duration = m.clk.t - ev.Start
		ev.Args = append(append([]Arg(nil), ev.Args...), extra...)
		if len(ev.Args) == 0 {
			ev.Args = nil
		}
		m.done = append(m.done, ev)
		m.slots[idx] = nil
		m.free = append(m.free, idx)
	}
}

// want is the event list an export at the current instant must show.
func (m *tracerModel) want() []Event {
	out := append([]Event(nil), m.done...)
	for _, open := range m.slots {
		if open == nil {
			continue
		}
		ev := *open
		ev.Duration = m.clk.t - ev.Start
		ev.Args = append(append([]Arg(nil), ev.Args...), S("state", "running"))
		out = append(out, ev)
	}
	return out
}

func newTracerModel(seed int64, steps int) *tracerModel {
	clk := &fakeClock{}
	m := &tracerModel{rng: rand.New(rand.NewSource(seed)), clk: clk, tr: New(clk)}
	for i := 0; i < steps; i++ {
		m.step()
	}
	return m
}

func TestExportsMatchEncodingJSONReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		steps := 50
		if seed%8 == 0 {
			steps = 12000 // crosses event-chunk and arena-chunk boundaries
		}
		m := newTracerModel(seed, steps)
		want := m.want()
		got := m.tr.Events()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events, model has %d", seed, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(normArgs(got[i]), normArgs(want[i])) {
				t.Fatalf("seed %d: event %d = %+v, want %+v", seed, i, got[i], want[i])
			}
		}
		for _, tc := range []struct {
			name string
			got  func(io.Writer) error
			ref  func(io.Writer, []Event) error
		}{
			{"jsonl", m.tr.WriteJSONL, refWriteJSONL},
			{"chrome", m.tr.WriteChromeTrace, refWriteChrome},
		} {
			var a, b bytes.Buffer
			errA, errB := tc.got(&a), tc.ref(&b, want)
			if (errA != nil) != (errB != nil) {
				t.Fatalf("seed %d %s: error %v, reference error %v", seed, tc.name, errA, errB)
			}
			if errA == nil && !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("seed %d %s: export differs from reference\n got: %.300s\nwant: %.300s",
					seed, tc.name, a.String(), b.String())
			}
		}
	}
}

// normArgs maps an empty arg list to nil, since both render alike.
func normArgs(ev Event) Event {
	if len(ev.Args) == 0 {
		ev.Args = nil
	}
	return ev
}

func TestEmptyTracerExportsMatchReference(t *testing.T) {
	tr := New(nil)
	for _, tc := range []struct {
		name string
		got  func(io.Writer) error
		ref  func(io.Writer, []Event) error
	}{
		{"jsonl", tr.WriteJSONL, refWriteJSONL},
		{"chrome", tr.WriteChromeTrace, refWriteChrome},
	} {
		var a, b bytes.Buffer
		if err := tc.got(&a); err != nil {
			t.Fatal(err)
		}
		tc.ref(&b, nil)
		if a.String() != b.String() {
			t.Errorf("%s: got %q, want %q", tc.name, a.String(), b.String())
		}
	}
}

func TestDuplicateArgKeysLaterWins(t *testing.T) {
	tr := New(&fakeClock{})
	tr.Instant("t", "c", "n", S("k", "first"), F("a", 1), F("k", 2), S("a", "last"))
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"type":"instant","ts_us":0,"track":"t","cat":"c","name":"n","args":{"a":"last","k":2}}` + "\n"
	if buf.String() != want {
		t.Fatalf("got %s want %s", buf.String(), want)
	}
}

func TestNonFiniteArgsFailExport(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr := New(&fakeClock{})
		tr.Instant("t", "c", "n", F("x", v))
		if err := tr.WriteJSONL(io.Discard); err == nil {
			t.Errorf("WriteJSONL with arg %v: no error", v)
		}
		if err := tr.WriteChromeTrace(io.Discard); err == nil {
			t.Errorf("WriteChromeTrace with arg %v: no error", v)
		}
	}
}

// TestRecordingDoesNotAllocate pins the copy-free store: on a warm
// tracer, Instant and a Begin/End pair with args allocate nothing per
// call (the chunk and arena allocations amortize to well under one per
// thousand calls), and callers' variadic arg slices do not escape.
func TestRecordingDoesNotAllocate(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk)
	for i := 0; i < 20000; i++ {
		tr.Begin("tt-0", "task", "map-0", S("job", "Sort-1")).End(F("n", 1))
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		tr.Instant("pm-0", "power", "power-on", S("reason", "demand"), F("watts", 212.5))
	}); allocs != 0 {
		t.Errorf("Instant: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin("tt-0", "task", "map-0", S("job", "Sort-1"), S("kind", "map"),
			F("slot_wait_sec", 2))
		clk.t += time.Second
		sp.End(F("progress", 1), S("outcome", "done"))
	}); allocs != 0 {
		t.Errorf("Begin/End: %v allocs/op, want 0", allocs)
	}
}

// TestEventArgsAreIsolated checks that the arena copy detaches recorded
// args from the caller's slice and that appending to one event's args
// cannot overwrite its neighbour's.
func TestEventArgsAreIsolated(t *testing.T) {
	tr := New(&fakeClock{})
	args := []Arg{S("k", "v1")}
	tr.Instant("t", "c", "a", args...)
	args[0] = S("k", "mutated")
	tr.Instant("t", "c", "b", S("k", "v2"))
	evs := tr.Events()
	_ = append(evs[0].Args, S("k", "clobber"))
	if v, _ := evs[0].Args[0].Text(); v != "v1" {
		t.Errorf("first event arg = %q, want v1", v)
	}
	if v, _ := evs[1].Args[0].Text(); v != "v2" {
		t.Errorf("second event arg = %q, want v2", v)
	}
}
