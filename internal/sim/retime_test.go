package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// checkHeap verifies the queue's heap order and that every queued event
// records its own index.
func checkHeap(t *testing.T, e *Engine, after string) {
	t.Helper()
	for i, ev := range e.queue {
		if ev.idx != i {
			t.Fatalf("after %s: event at heap slot %d records index %d", after, i, ev.idx)
		}
		if i > 0 && before(ev, e.queue[(i-1)>>2]) {
			t.Fatalf("after %s: heap order broken at slot %d", after, i)
		}
	}
}

// retimeScript drives two engines through one seeded random script of
// At, Cancel, Step and re-key operations with deliberate same-instant
// ties. The engine under test re-keys with Reserve at the change and
// Retime later, before any pop; the reference cancels and re-schedules
// at the change. It returns both fire logs, checking the engine under
// test's heap after every operation.
func retimeScript(t *testing.T, seed int64) (got, want []string) {
	rng := rand.New(rand.NewSource(seed))
	lazy, ref := New(), New()
	type timer struct {
		id       int
		lazy     *Event
		ref      *Event
		retimeAt time.Duration // pending re-key target, set by a reservation
		key      uint64        // reserved sequence number for the re-key
		queued   bool          // has a pending re-key
	}
	var timers []*timer
	nextID := 0
	fire := func(log *[]string, e *Engine, id int) func() {
		return func() { *log = append(*log, fmt.Sprintf("%d@%v", id, e.Now())) }
	}
	// Times land on a coarse grid so that ties are common.
	when := func(e *Engine) time.Duration {
		return e.Now() + time.Duration(rng.Intn(6))*time.Second
	}
	var pending []*timer // timers with a reserved key not yet retimed
	flush := func() {
		for _, tm := range pending {
			if !tm.queued {
				continue
			}
			tm.queued = false
			tm.lazy = lazy.Retime(tm.lazy, tm.retimeAt, tm.key, fire(&got, lazy, tm.id))
			checkHeap(t, lazy, "Retime")
		}
		pending = pending[:0]
	}
	live := func() []*timer {
		var out []*timer
		for _, tm := range timers {
			if tm.lazy != nil {
				out = append(out, tm)
			}
		}
		return out
	}
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 3: // schedule a new timer
			at := when(lazy)
			tm := &timer{id: nextID}
			nextID++
			tm.lazy = lazy.At(at, fire(&got, lazy, tm.id))
			tm.ref = ref.At(at, fire(&want, ref, tm.id))
			timers = append(timers, tm)
			checkHeap(t, lazy, "At")
		case op < 4: // cancel a live timer with no pending re-key
			ls := live()
			if len(ls) == 0 {
				continue
			}
			tm := ls[rng.Intn(len(ls))]
			if tm.queued {
				continue
			}
			lazy.Cancel(tm.lazy)
			ref.Cancel(tm.ref)
			tm.lazy, tm.ref = nil, nil
			checkHeap(t, lazy, "Cancel")
		case op < 7: // a change re-keys up to three timers
			ls := live()
			n := rng.Intn(4)
			if n > len(ls) {
				n = len(ls)
			}
			first := lazy.Reserve(n)
			for i := 0; i < n; i++ {
				tm := ls[rng.Intn(len(ls))]
				at := when(lazy)
				// The reference cancels and re-schedules now.
				ref.Cancel(tm.ref)
				tm.ref = ref.At(at, fire(&want, ref, tm.id))
				// The engine under test only remembers the key.
				if !tm.queued {
					pending = append(pending, tm)
				}
				tm.queued, tm.retimeAt, tm.key = true, at, first+uint64(i)
			}
		case op < 8: // schedule-and-cancel churn forces compactions
			for i := 0; i < 80; i++ {
				at := when(lazy) + time.Hour
				lazy.Cancel(lazy.At(at, func() {}))
				ref.Cancel(ref.At(at, func() {}))
			}
			checkHeap(t, lazy, "churn")
		default: // pop one event; re-keys flush first, as Defer does
			flush()
			lazy.Step()
			ref.Step()
			checkHeap(t, lazy, "Step")
			// Drop handles of timers that just fired.
			for _, tm := range timers {
				if tm.lazy != nil && (tm.lazy.freed || tm.lazy.fired) {
					tm.lazy, tm.ref = nil, nil
				}
			}
		}
	}
	flush()
	lazy.Run()
	ref.Run()
	if lazy.compactions == 0 {
		t.Errorf("seed %d: the script never compacted the queue", seed)
	}
	return got, want
}

// TestRetimeMatchesCancelAndReschedule checks that re-keying an event to
// a reserved sequence number pops in exactly the order cancelling it and
// scheduling afresh at the reservation would have: random interleavings
// of At, Cancel, Reserve, Retime and Step with same-instant ties, the
// heap index verified after every operation, compaction included.
func TestRetimeMatchesCancelAndReschedule(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		got, want := retimeScript(t, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events fired, reference fired %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: fire %d is %s, reference fired %s", seed, i, got[i], want[i])
			}
		}
		if len(got) < 50 {
			t.Fatalf("seed %d: only %d events fired", seed, len(got))
		}
	}
}

// TestRetimeInPlace checks that re-keying a pending event keeps its
// handle, moves it in both directions and costs neither a push nor a
// cancellation.
func TestRetimeInPlace(t *testing.T) {
	e := New()
	var got []string
	mark := func(s string) func() { return func() { got = append(got, s) } }
	a := e.At(5*time.Second, mark("a"))
	e.At(3*time.Second, mark("b"))
	c := e.At(1*time.Second, mark("c"))
	pushes := e.heapPushes
	key := e.Reserve(2)
	if e.Retime(a, time.Second, key, mark("a")) != a {
		t.Fatal("Retime of a pending event returned a different handle")
	}
	if e.Retime(c, 4*time.Second, key+1, mark("c")) != c {
		t.Fatal("Retime of a pending event returned a different handle")
	}
	checkHeap(t, e, "Retime")
	if e.heapPushes != pushes || e.Cancelled() != 0 || e.Pending() != 3 {
		t.Errorf("in-place Retime: pushes +%d, cancelled %d, pending %d; want +0, 0, 3",
			e.heapPushes-pushes, e.Cancelled(), e.Pending())
	}
	e.Run()
	if fmt.Sprint(got) != "[a b c]" {
		t.Errorf("fire order %v, want [a b c]", got)
	}
}

// TestRetimeDeadHandleSchedulesFresh checks that retiming a nil handle,
// one whose event has fired, one that was cancelled, or one parked on
// the freelist schedules a fresh event under the given key.
func TestRetimeDeadHandleSchedulesFresh(t *testing.T) {
	e := New()
	var got []string
	mark := func(s string) func() { return func() { got = append(got, s) } }

	cancelled := e.At(time.Hour, func() {})
	e.Cancel(cancelled)

	var fired *Event
	fired = e.At(time.Second, func() {
		// Inside its own callback the event has fired but is not yet
		// recycled.
		key := e.Reserve(1)
		if ev := e.Retime(fired, 3*time.Second, key, mark("from-fired")); ev == nil || ev.At() != 3*time.Second {
			t.Error("Retime of the firing event did not schedule a fresh one")
		}
	})
	e.Step()
	if !fired.freed {
		t.Fatal("fired event was not released to the freelist")
	}

	// The freelisted handle goes first: any allocation would reuse it.
	key := e.Reserve(3)
	for i, h := range []*Event{fired, nil, cancelled} {
		name := [...]string{"from-freelist", "from-nil", "from-cancelled"}[i]
		ev := e.Retime(h, 2*time.Second, key+uint64(i), mark(name))
		if ev == nil || ev.At() != 2*time.Second || ev.Cancelled() {
			t.Fatalf("%s: Retime returned %v", name, ev)
		}
		checkHeap(t, e, name)
	}
	if e.Pending() != 4 {
		t.Errorf("Pending() = %d, want 4 fresh events", e.Pending())
	}
	e.Run()
	want := "[from-freelist from-nil from-cancelled from-fired]"
	if fmt.Sprint(got) != want {
		t.Errorf("fire order %v, want %s", got, want)
	}
}

// TestReserveOrdersLikeImmediateScheduling checks the tie rule Reserve
// exists for: an event given a reserved key fires after events scheduled
// before the reservation and before those scheduled after it, at the
// same instant.
func TestReserveOrdersLikeImmediateScheduling(t *testing.T) {
	e := New()
	var got []string
	mark := func(s string) func() { return func() { got = append(got, s) } }
	e.At(time.Second, mark("before"))
	key := e.Reserve(1)
	e.At(time.Second, mark("after"))
	e.Retime(nil, time.Second, key, mark("reserved"))
	e.Run()
	if fmt.Sprint(got) != "[before reserved after]" {
		t.Errorf("fire order %v, want [before reserved after]", got)
	}
}

// TestDeferRunsBeforePopAndClockMove checks the Defer hook: callbacks
// run once, in order, before the next event is popped — so an event they
// schedule at the current instant fires in the same Step — and before
// RunUntil moves the clock, even with nothing left to fire.
func TestDeferRunsBeforePopAndClockMove(t *testing.T) {
	e := New()
	var got []string
	log := func(s string) { got = append(got, fmt.Sprintf("%s@%v", s, e.Now())) }

	e.At(time.Second, func() {
		log("event")
		e.Defer(func() {
			log("deferred-1")
			e.Defer(func() { log("nested") })
		})
		e.Defer(func() {
			log("deferred-2")
			e.At(e.Now(), func() { log("scheduled-by-defer") })
		})
	})
	e.At(2*time.Second, func() { log("later") })
	e.Step()
	e.Step()
	e.Step()
	want := "[event@1s deferred-1@1s deferred-2@1s nested@1s scheduled-by-defer@1s later@2s]"
	if fmt.Sprint(got) != want {
		t.Fatalf("order %v,\nwant %s", got, want)
	}

	// An empty queue still drains deferred work, which may schedule.
	got = nil
	e.Defer(func() {
		log("deferred")
		e.After(0, func() { log("fresh") })
	})
	if !e.Step() {
		t.Fatal("Step found nothing to fire although a deferred callback scheduled an event")
	}
	// RunUntil drains before it moves the clock.
	e.Defer(func() { log("before-advance") })
	e.RunUntil(10 * time.Second)
	want = "[deferred@2s fresh@2s before-advance@2s]"
	if fmt.Sprint(got) != want {
		t.Errorf("order %v,\nwant %s", got, want)
	}
	if e.Now() != 10*time.Second {
		t.Errorf("Now() = %v, want 10s", e.Now())
	}
	if len(e.deferred) != 0 {
		t.Errorf("%d deferred callbacks left after draining", len(e.deferred))
	}

	// A halted engine fires nothing more, but RunUntil still drains
	// before it moves the clock.
	got = nil
	e.At(11*time.Second, func() {
		log("halting")
		e.Defer(func() { log("deferred-at-halt") })
		e.Halt()
	})
	e.RunUntil(20 * time.Second)
	want = "[halting@11s deferred-at-halt@11s]"
	if fmt.Sprint(got) != want {
		t.Errorf("order %v,\nwant %s", got, want)
	}
}

// TestRetimeZeroAllocs pins the re-key path: reserving and retiming a
// pending event, then draining deferred work, allocates nothing.
func TestRetimeZeroAllocs(t *testing.T) {
	e := New()
	fn := func() {}
	evs := make([]*Event, 64)
	for i := range evs {
		evs[i] = e.At(time.Duration(i+1)*time.Second, fn)
	}
	e.Defer(fn)
	e.RunUntil(0)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		ev := evs[i%len(evs)]
		evs[i%len(evs)] = e.Retime(ev, time.Duration(i%97)*time.Second+time.Hour, e.Reserve(1), fn)
		e.Defer(fn)
		e.RunUntil(e.Now())
	})
	if allocs != 0 {
		t.Errorf("Reserve+Retime+Defer allocates %.1f/op, want 0", allocs)
	}
}
