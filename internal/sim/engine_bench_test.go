package sim

import (
	"testing"
	"time"
)

// The engine microbenchmarks cover the four hot paths of the simulator:
// steady-state schedule+fire (the common case: one event scheduled per
// event fired, queue depth roughly constant), schedule+cancel churn (the
// timer-wheel pattern every timeout/heartbeat follows: most scheduled
// events are cancelled before they fire), in-place re-keying (every
// completion event on a re-solved machine), and the Ticker steady state
// that backs every periodic controller in the system.

// BenchmarkScheduleFire measures raw schedule+fire throughput at queue
// depth ~1: each iteration schedules one event and fires it.
func BenchmarkScheduleFire(b *testing.B) {
	e := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Microsecond, fn)
		e.Step()
	}
}

// benchDepth measures schedule+fire throughput with a standing queue of
// the given depth, which exercises the heap's sift paths.
func benchDepth(b *testing.B, depth int) {
	e := New()
	fn := func() {}
	for i := 0; i < depth; i++ {
		e.After(time.Duration(i)*time.Millisecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(depth)*time.Millisecond, fn)
		e.Step()
	}
}

func BenchmarkScheduleFireDepth64(b *testing.B)    { benchDepth(b, 64) }
func BenchmarkScheduleFireDepth1024(b *testing.B)  { benchDepth(b, 1024) }
func BenchmarkScheduleFireDepth16384(b *testing.B) { benchDepth(b, 16384) }

// BenchmarkScheduleCancel measures the timeout pattern: schedule a far
// deadline, cancel it, schedule the next — the event almost never fires.
// A standing queue of live events keeps the heap honest.
func BenchmarkScheduleCancel(b *testing.B) {
	e := New()
	fn := func() {}
	for i := 0; i < 256; i++ {
		e.After(time.Duration(i)*time.Hour, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.After(time.Minute, fn)
		e.Cancel(ev)
	}
}

// BenchmarkTickerSteadyState measures one periodic-controller tick:
// fire the tick callback and reschedule the next period.
func BenchmarkTickerSteadyState(b *testing.B) {
	e := New()
	tk := NewTicker(e, time.Second, func(time.Duration) {})
	defer tk.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkRetime measures the completion re-key a fair-share re-solve
// pays per consumer: reserve a sequence number and move one pending
// event of a 1024-deep queue to a new time in place.
func BenchmarkRetime(b *testing.B) {
	e := New()
	fn := func() {}
	evs := make([]*Event, 1024)
	for i := range evs {
		evs[i] = e.At(time.Duration(i+1)*time.Second, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i * 7 % len(evs)
		t := time.Duration(1+(i*131)%2048) * time.Second
		evs[j] = e.Retime(evs[j], t, e.Reserve(1), fn)
	}
}
