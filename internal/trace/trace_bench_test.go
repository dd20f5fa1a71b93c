package trace

import (
	"io"
	"strconv"
	"testing"
	"time"
)

// taskTrace records a trace shaped like the simulator's: n task-attempt
// spans with the JobTracker's launch args across 64 tracker tracks,
// each ended with a progress arg, one power instant per 8 spans, and a
// few spans left open at export.
func taskTrace(n int) *Tracer {
	clk := &fakeClock{}
	tr := New(clk)
	open := make([]Span, 0, 4)
	for i := 0; i < n; i++ {
		clk.t += 1500 * time.Microsecond
		track := "tt-" + strconv.Itoa(i%64)
		sp := tr.Begin(track, "task", "Sort-"+strconv.Itoa(i/200)+"/map-"+strconv.Itoa(i%200),
			S("job", "Sort-"+strconv.Itoa(i/200)), S("kind", "map"), F("slot_wait_sec", float64(i%17)/4))
		if i%8 == 0 {
			tr.Instant("pm-"+strconv.Itoa(i%16), "power", "power-on", S("reason", "demand"))
		}
		if len(open) < cap(open) {
			open = append(open, sp)
			continue
		}
		clk.t += 250 * time.Millisecond
		sp.End(F("progress", 1))
	}
	return tr
}

func benchmarkExport(b *testing.B, write func(*Tracer, io.Writer) error) {
	tr := taskTrace(10000)
	var cw countWriter
	if err := write(tr, &cw); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(cw))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(tr, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

type countWriter int

func (w *countWriter) Write(p []byte) (int, error) { *w += countWriter(len(p)); return len(p), nil }

// BenchmarkTracerWriteJSONL measures exporting a 10,000-span trace as
// JSONL.
func BenchmarkTracerWriteJSONL(b *testing.B) {
	benchmarkExport(b, (*Tracer).WriteJSONL)
}

// BenchmarkTracerWriteChrome measures exporting the same trace in the
// Chrome trace_event format.
func BenchmarkTracerWriteChrome(b *testing.B) {
	benchmarkExport(b, (*Tracer).WriteChromeTrace)
}

// BenchmarkTracerSpan measures recording one task-attempt span, with
// three args at Begin and one at End, on a warm tracer.
func BenchmarkTracerSpan(b *testing.B) {
	clk := &fakeClock{}
	tr := taskTrace(1000)
	tr.SetClock(clk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin("tt-3", "task", "Sort-1/map-7", S("job", "Sort-1"), S("kind", "map"), F("slot_wait_sec", 2))
		clk.t += time.Second
		sp.End(F("progress", 1))
	}
}
