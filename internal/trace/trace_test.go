package trace

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced Clock.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration { return c.t }

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Instant("track", "cat", "name")
	sp := tr.Begin("track", "cat", "name")
	if sp.Active() {
		t.Fatal("span from nil tracer should not be active")
	}
	sp.End()
	tr.SetClock(&fakeClock{})
	if tr.Len() != 0 || tr.OpenSpans() != 0 {
		t.Fatal("nil tracer should report zero events")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil chrome trace not valid JSON: %v", err)
	}
}

func TestSpanLifecycle(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk)

	clk.t = 5 * time.Second
	sp := tr.Begin("tt-0", "task", "map-0", S("job", "j1"))
	if !sp.Active() {
		t.Fatal("span should be active after Begin")
	}
	if tr.OpenSpans() != 1 {
		t.Fatalf("OpenSpans = %d, want 1", tr.OpenSpans())
	}

	clk.t = 12 * time.Second
	sp.End(F("progress", 1))
	if sp.Active() {
		t.Fatal("span should be inactive after End")
	}
	if tr.Len() != 1 || tr.OpenSpans() != 0 {
		t.Fatalf("Len=%d OpenSpans=%d, want 1/0", tr.Len(), tr.OpenSpans())
	}

	ev := tr.Events()[0]
	if ev.Instant || ev.Start != 5*time.Second || ev.Duration != 7*time.Second {
		t.Fatalf("event = %+v, want X span [5s,12s]", ev)
	}
	if len(ev.Args) != 2 || ev.Args[0].Key != "job" || ev.Args[1].Key != "progress" {
		t.Fatalf("args = %+v, want Begin args then End args", ev.Args)
	}

	// Double End is a no-op.
	sp.End()
	if tr.Len() != 1 {
		t.Fatal("double End recorded a second event")
	}
}

func TestStaleSpanHandleAfterSlotReuse(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk)

	a := tr.Begin("t", "c", "a")
	a.End()
	b := tr.Begin("t", "c", "b") // reuses a's slot
	a.End()                      // stale handle: must not close b
	if !b.Active() {
		t.Fatal("stale End closed an unrelated span")
	}
	b.End()
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
}

func TestInstant(t *testing.T) {
	clk := &fakeClock{t: 3 * time.Second}
	tr := New(clk)
	tr.Instant("pm-0", "power", "power-off", S("reason", "consolidation"))
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	ev := tr.Events()[0]
	if !ev.Instant || ev.Start != 3*time.Second || ev.Name != "power-off" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestSnapshotIncludesOpenSpans(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk)
	tr.Begin("t", "c", "still-running")
	clk.t = 9 * time.Second

	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("snapshot has %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Duration != 9*time.Second {
		t.Fatalf("open span dur = %v, want 9s", ev.Duration)
	}
	last := ev.Args[len(ev.Args)-1]
	if v, ok := last.Text(); last.Key != "state" || !ok || v != "running" {
		t.Fatalf("open span missing state=running arg: %+v", ev.Args)
	}
	// Snapshot must not close the span.
	if tr.OpenSpans() != 1 {
		t.Fatal("snapshot closed an open span")
	}
}

func TestLateClockBinding(t *testing.T) {
	tr := New(nil)
	tr.Instant("t", "c", "early") // clock unbound: stamps at 0
	clk := &fakeClock{t: time.Minute}
	tr.SetClock(clk)
	tr.Instant("t", "c", "late")
	evs := tr.Events()
	if evs[0].Start != 0 || evs[1].Start != time.Minute {
		t.Fatalf("timestamps = %v, %v", evs[0].Start, evs[1].Start)
	}
}

func TestWriteJSONL(t *testing.T) {
	clk := &fakeClock{t: time.Second}
	tr := New(clk)
	sp := tr.Begin("vm-1", "migration", "migrate", S("to", "pm-2"))
	clk.t = 4 * time.Second
	sp.End(F("rounds", 3))
	tr.Instant("vm-1", "migration", "stop-and-copy")

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var span struct {
		Type  string         `json:"type"`
		TsUs  int64          `json:"ts_us"`
		DurUs int64          `json:"dur_us"`
		Track string         `json:"track"`
		Name  string         `json:"name"`
		Args  map[string]any `json:"args"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &span); err != nil {
		t.Fatal(err)
	}
	if span.Type != "span" || span.TsUs != 1e6 || span.DurUs != 3e6 ||
		span.Track != "vm-1" || span.Args["to"] != "pm-2" || span.Args["rounds"] != 3.0 {
		t.Fatalf("span line = %+v", span)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk)
	sp := tr.Begin("pm-0", "power", "powered-off")
	clk.t = 2 * time.Second
	sp.End()
	tr.Instant("pm-1", "power", "power-on")

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace: %v", err)
	}
	// 2 tracks x 2 metadata events + 2 real events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d events, want 6", len(doc.TraceEvents))
	}
	byPh := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byPh[ev.Ph]++
	}
	if byPh["M"] != 4 || byPh["X"] != 1 || byPh["i"] != 1 {
		t.Fatalf("phase counts = %v", byPh)
	}
	// First metadata event names the first-seen track.
	md := doc.TraceEvents[0]
	if md.Name != "thread_name" || md.Args["name"] != "pm-0" {
		t.Fatalf("first metadata event = %+v", md)
	}
	// The X event carries its duration in microseconds.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Dur != 2e6 {
			t.Fatalf("span dur = %d, want 2e6", ev.Dur)
		}
	}
}

func TestExportDeterminism(t *testing.T) {
	build := func() *Tracer {
		clk := &fakeClock{}
		tr := New(clk)
		for i := 0; i < 50; i++ {
			clk.t = time.Duration(i) * time.Second
			sp := tr.Begin("track-a", "cat", "span", F("i", float64(i)), S("k", "v"))
			tr.Instant("track-b", "cat", "inst", F("i", float64(i)))
			clk.t += 500 * time.Millisecond
			sp.End(S("done", "yes"))
		}
		tr.Begin("track-c", "cat", "open")
		return tr
	}
	for _, format := range []ExportFormat{FormatJSONL, FormatChrome} {
		var a, b bytes.Buffer
		if err := build().Write(&a, format); err != nil {
			t.Fatal(err)
		}
		if err := build().Write(&b, format); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s export not byte-identical across identical runs", format)
		}
	}
}

func TestWriteUnknownFormat(t *testing.T) {
	tr := New(nil)
	if err := tr.Write(&bytes.Buffer{}, "xml"); err == nil {
		t.Fatal("expected error for unknown format")
	}
}

// TestInternTableBounded checks that the intern table holds only the
// tracks, categories and arg keys: names and string values, unique per
// event here, stay out of it.
func TestInternTableBounded(t *testing.T) {
	tr := New(&fakeClock{})
	const events = 100000
	for i := 0; i < events; i++ {
		track := "track-" + strconv.Itoa(i%10)
		cat := "cat-" + strconv.Itoa(i%3)
		name := "event-" + strconv.Itoa(i)
		key := func(k int) string { return "key-" + strconv.Itoa((i+k)%5) }
		if i%2 == 0 {
			tr.Instant(track, cat, name, S(key(0), name), F(key(1), float64(i)))
		} else {
			tr.Begin(track, cat, name, S(key(2), name)).End(F(key(3), 1), S(key(4), "v"+strconv.Itoa(i)))
		}
	}
	if tr.Len() != events {
		t.Fatalf("Len = %d, want %d", tr.Len(), events)
	}
	if got, want := tr.syms.Len(), 10+3+5; got != want {
		t.Errorf("intern table holds %d strings, want %d", got, want)
	}
}
