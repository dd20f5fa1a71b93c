// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an ordered queue of events.
// Events scheduled for the same instant fire in the order they were
// scheduled (an event re-keyed with Retime takes the place its reserved
// sequence number gives it), which makes every simulation that uses a
// seeded random source fully reproducible. All of the data-center
// substrates in this repository (cluster, DFS, MapReduce, interactive
// services) advance on a shared Engine.
//
// # Performance model
//
// The queue is an inlined 4-ary min-heap specialized to *Event — no
// interface dispatch on the hot path — and fired events are recycled
// through a per-engine freelist, so steady-state scheduling (one event
// scheduled per event fired) performs no heap allocations.
//
// Every queued event knows its heap index, so an event whose deadline
// moves is re-keyed in place: Retime rewrites its (time, sequence) key
// and sifts it to its new position in O(log n), with no corpse left
// behind and no freelist round trip. Reserve hands out sequence numbers
// ahead of time, so a caller that decides an event's time later still
// gets the tie order it would have had by scheduling at the moment it
// reserved: retiming to a reserved key pops in exactly the order a
// Cancel followed by a fresh At at reservation time would have given.
// The cluster substrate re-keys completion events this way instead of
// cancelling and re-pushing them on every fair-share re-solve, so
// completion churn costs no cancellations at all.
//
// Cancel remains a lazy deletion for the events that really die: it
// marks the event and the queue skips it at pop time, so cancelling
// costs O(1) instead of an O(log n) removal; when dead events outnumber
// live ones the queue compacts in one O(n) pass. With re-keying in
// place of cancel churn, compaction is rare.
//
// Defer queues work that must happen before simulated time can observe
// it: deferred callbacks run once, before the next event is popped and
// before RunUntil moves the clock. The cluster substrate defers its
// fair-share re-solves this way, so k changes to one machine at one
// instant cost one solve.
//
// # Event retention contract
//
// Because fired and cancelled events return to the engine's freelist and
// are reused by later Schedule calls, an *Event handle must not be
// retained after its callback has fired: clear any stored reference from
// within the callback (as sim.Ticker and the cluster substrates do), and
// never call Cancel on an event that is known to have fired in an earlier
// step. Cancelling the event currently being fired, from inside its own
// callback, is safe and remains a no-op. Retime is the one exception to
// the rule: handed a handle that has fired, was cancelled or is on the
// freelist (but not yet reused), it schedules a fresh event instead.
//
// An Engine is not safe for concurrent use; run concurrent simulations on
// separate engines (the experiment worker pool runs one engine per sweep
// point).
package sim

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/perfstat"
)

// processEvents counts events fired across every Engine in the process.
// Engines flush into it in batches when Run or RunUntil return, so the
// hot loop pays no atomic operation per event; read it between runs, not
// mid-run. Benchmark tooling that wants one run's total reads it before
// and after a run that no other goroutine overlaps, or uses Engine.Fired.
var processEvents atomic.Uint64

// ProcessEvents returns the total number of events fired by all engines
// in this process, as of each engine's last completed Run/RunUntil.
func ProcessEvents() uint64 { return processEvents.Load() }

// Event is a scheduled callback. It is returned by the scheduling methods
// so that callers can cancel it before it fires. See the package
// documentation for the retention contract: handles must not be kept
// after the event fires, because the object is recycled.
type Event struct {
	at     time.Duration
	seq    uint64
	fn     func()
	idx    int // heap index while queued
	fired  bool
	cancel bool
	freed  bool // on the freelist; any use is a retention bug
}

// At returns the virtual time at which the event fires.
func (e *Event) At() time.Duration { return e.at }

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e.cancel }

// Engine is a discrete-event simulator. The zero value is not usable; use
// New.
type Engine struct {
	now        time.Duration
	queue      eventQueue
	free       []*Event
	seq        uint64
	fired      uint64
	flushed    uint64 // fired count already pushed to processEvents
	cancelled  uint64
	live       int // queued events not yet cancelled
	dead       int // queued events cancelled but not yet popped
	maxPending int
	halted     bool
	deferred   []func() // run once before the next pop; see Defer

	// Heap-operation tallies for perfstat. They are engine-local plain
	// integers (no atomics, no indirection) so the hot path stays
	// zero-alloc and branch-cheap whether profiling is on or off; flush
	// copies the deltas into perf at Run/RunUntil boundaries.
	heapPushes  uint64
	heapPops    uint64
	siftSwaps   uint64
	compactions uint64

	perf *perfstat.Stats
	// perfFlushed* remember the totals already copied into perf.
	perfFlushedFired   uint64
	perfFlushedPushes  uint64
	perfFlushedPops    uint64
	perfFlushedSwaps   uint64
	perfFlushedCompact uint64
}

// New returns an Engine with its clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of events processed so far. It is useful in
// tests, for detecting runaway simulations, and for attributing event
// totals to a specific run when many engines share the process.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued (cancelled events are
// excluded, even while they await lazy removal).
func (e *Engine) Pending() int { return e.live }

// MaxPending returns the high-water mark of the event queue depth, a
// proxy for how much concurrent activity the simulation carried.
func (e *Engine) MaxPending() int { return e.maxPending }

// FreelistLen returns the number of recycled events currently parked on
// the freelist — allocated capacity waiting for reuse.
func (e *Engine) FreelistLen() int { return len(e.free) }

// CancelDebt returns the number of cancelled events still occupying heap
// slots while they await lazy removal (the sweep threshold bounds it at
// max(64, live)).
func (e *Engine) CancelDebt() int { return e.dead }

// Cancelled returns the number of pending events removed via Cancel.
// Cancelling an event that already fired (or was already cancelled) does
// not count.
func (e *Engine) Cancelled() uint64 { return e.cancelled }

// SetPerf attaches a performance-attribution collector. Heap-operation
// and fired-event counters are accumulated engine-locally and flushed
// into it at Run/RunUntil boundaries (the same batching as
// ProcessEvents), and each pump is recorded as an "engine.pump"
// wall-time span. Pass nil to detach.
func (e *Engine) SetPerf(ps *perfstat.Stats) { e.perf = ps }

// alloc takes an event from the freelist, or allocates one.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.fired = false
		ev.cancel = false
		ev.freed = false
		return ev
	}
	return &Event{}
}

// release returns a fired or dead event to the freelist.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.freed = true
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is an error that indicates a logic bug in the caller; the event is
// clamped to Now so the simulation remains monotonic, and the returned
// event fires immediately on the next step.
func (e *Engine) At(t time.Duration, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	seq := e.seq
	e.seq++
	return e.schedule(t, seq, fn)
}

// schedule queues a fresh event under the key (t, seq).
func (e *Engine) schedule(t time.Duration, seq uint64, fn func()) *Event {
	ev := e.alloc()
	ev.at = t
	ev.seq = seq
	ev.fn = fn
	e.heapPushes++
	e.queue.push(ev, &e.siftSwaps)
	e.live++
	if e.live > e.maxPending {
		e.maxPending = e.live
	}
	return ev
}

// Reserve claims n consecutive sequence numbers and returns the first.
// An event later given one of them through Retime orders among
// same-instant events exactly as if it had been scheduled at the moment
// of the reservation: after every event scheduled before it, before
// every event scheduled after it.
func (e *Engine) Reserve(n int) uint64 {
	seq := e.seq
	e.seq += uint64(n)
	return seq
}

// Retime moves ev to fire fn at (t, seq), where seq came from Reserve,
// and returns the event that now carries that key. A pending event is
// re-keyed in place, keeping its handle; a nil handle, or one that has
// fired, was cancelled or is back on the freelist, gets a fresh event
// instead. Either way the pop order is exactly what cancelling ev and
// scheduling fn at t at the moment seq was reserved would have given.
// Times in the past are clamped to Now, as At does.
func (e *Engine) Retime(ev *Event, t time.Duration, seq uint64, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	if ev == nil || ev.freed || ev.fired || ev.cancel {
		return e.schedule(t, seq, fn)
	}
	ev.at = t
	ev.seq = seq
	ev.fn = fn
	e.queue.fix(ev.idx, &e.siftSwaps)
	return ev
}

// Defer queues fn to run once before the engine next pops an event or
// RunUntil next moves the clock, whichever comes first. Deferred
// callbacks run in the order they were deferred and may schedule,
// retime or cancel events; one deferred from inside another runs in the
// same drain.
func (e *Engine) Defer(fn func()) {
	e.deferred = append(e.deferred, fn)
}

// runDeferred drains the deferred callbacks.
func (e *Engine) runDeferred() {
	for i := 0; i < len(e.deferred); i++ {
		fn := e.deferred[i]
		e.deferred[i] = nil
		fn()
	}
	e.deferred = e.deferred[:0]
}

// After schedules fn to run d from now. Negative durations are clamped to
// zero.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AfterSeconds schedules fn after the given number of (possibly fractional)
// virtual seconds. Infinite or NaN delays are never scheduled and return
// nil; callers use this to express "no completion in sight" without special
// cases.
func (e *Engine) AfterSeconds(sec float64, fn func()) *Event {
	if math.IsNaN(sec) || math.IsInf(sec, 0) {
		return nil
	}
	return e.After(DurationFromSeconds(sec), fn)
}

// Cancel removes a pending event. Cancelling nil, an already-fired, or an
// already-cancelled event is a no-op. The removal is lazy: the event is
// marked dead and skipped (and recycled) when it reaches the head of the
// queue, or swept out when dead events outnumber live ones.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.freed {
		return
	}
	if ev.cancel || ev.fired {
		ev.cancel = true
		return
	}
	ev.cancel = true
	e.cancelled++
	e.live--
	e.dead++
	// Compact when the queue is mostly corpses, so unbounded
	// schedule+cancel churn cannot grow the queue without bound.
	if e.dead > 64 && e.dead > e.live {
		e.compact()
	}
}

// compact rebuilds the queue without its cancelled events, releasing them
// to the freelist. Heap order among survivors is restored by a full
// heapify; pop order is unaffected because (at, seq) is a total order.
func (e *Engine) compact() {
	q := e.queue
	kept := q[:0]
	for _, ev := range q {
		if ev.cancel {
			e.release(ev)
		} else {
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(q); i++ {
		q[i] = nil
	}
	e.queue = kept
	e.queue.heapify(&e.siftSwaps)
	e.compactions++
	e.dead = 0
}

// peekLive discards cancelled events from the head of the queue and
// returns the next live event without popping it, or nil when drained.
func (e *Engine) peekLive() *Event {
	for {
		ev := e.queue.peek()
		if ev == nil {
			return nil
		}
		if !ev.cancel {
			return ev
		}
		e.heapPops++
		e.queue.pop(&e.siftSwaps)
		e.dead--
		e.release(ev)
	}
}

// fire advances the clock to ev and runs its callback. The event is
// recycled after the callback returns.
func (e *Engine) fire(ev *Event) {
	e.now = ev.at
	e.fired++
	fn := ev.fn
	ev.fired = true
	fn()
	e.release(ev)
}

// flush pushes the fired-count delta since the last flush into the
// process-wide counter and the heap-op deltas into the perf collector,
// if attached.
func (e *Engine) flush() {
	if e.perf != nil {
		c := &e.perf.C
		c.EngineEventsFired += int64(e.fired - e.perfFlushedFired)
		c.EngineHeapPushes += int64(e.heapPushes - e.perfFlushedPushes)
		c.EngineHeapPops += int64(e.heapPops - e.perfFlushedPops)
		c.EngineHeapSiftSwaps += int64(e.siftSwaps - e.perfFlushedSwaps)
		c.EngineCompactions += int64(e.compactions - e.perfFlushedCompact)
		e.perfFlushedFired = e.fired
		e.perfFlushedPushes = e.heapPushes
		e.perfFlushedPops = e.heapPops
		e.perfFlushedSwaps = e.siftSwaps
		e.perfFlushedCompact = e.compactions
	}
	d := e.fired - e.flushed
	if d == 0 {
		return
	}
	e.flushed = e.fired
	processEvents.Add(d)
}

// Step fires the next event, advancing the clock. It returns false when the
// queue is empty or the engine has been halted.
func (e *Engine) Step() bool {
	if e.halted {
		return false
	}
	if len(e.deferred) > 0 {
		e.runDeferred()
	}
	ev := e.peekLive()
	if ev == nil {
		return false
	}
	e.heapPops++
	e.queue.pop(&e.siftSwaps)
	e.live--
	e.fire(ev)
	return true
}

// Run processes events until the queue drains or Halt is called.
func (e *Engine) Run() {
	e.perf.Enter("engine.pump")
	for e.Step() {
	}
	e.perf.Exit()
	e.flush()
}

// RunUntil processes events with timestamps <= t, then advances the clock
// to exactly t (even if no event fires there).
func (e *Engine) RunUntil(t time.Duration) {
	e.perf.Enter("engine.pump")
	for !e.halted {
		if len(e.deferred) > 0 {
			e.runDeferred()
		}
		ev := e.peekLive()
		if ev == nil || ev.at > t {
			break
		}
		e.heapPops++
		e.queue.pop(&e.siftSwaps)
		e.live--
		e.fire(ev)
	}
	if len(e.deferred) > 0 {
		e.runDeferred()
	}
	if t > e.now {
		e.now = t
	}
	e.perf.Exit()
	e.flush()
}

// Halt stops Run / RunUntil after the current event. Pending events remain
// queued.
func (e *Engine) Halt() { e.halted = true }

// String describes the engine state, for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%s pending=%d fired=%d}", e.now, e.live, e.fired)
}

// DurationFromSeconds converts float seconds into a duration, saturating at
// the maximum representable duration instead of overflowing.
func DurationFromSeconds(sec float64) time.Duration {
	if sec <= 0 {
		return 0
	}
	const maxSec = float64(math.MaxInt64) / float64(time.Second)
	if sec >= maxSec {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(sec * float64(time.Second))
}

// eventQueue is a 4-ary min-heap of events ordered by (time, sequence).
// A 4-ary layout halves the tree depth of a binary heap and keeps the
// children of a node on one cache line, which measurably speeds up the
// sift-down path that dominates pop.
type eventQueue []*Event

// before reports whether a fires before b: earlier time first, and FIFO
// among events scheduled for the same instant.
func before(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q eventQueue) peek() *Event {
	if len(q) == 0 {
		return nil
	}
	return q[0]
}

// The queue methods take a swap tally so the engine can attribute heap
// work (sift swaps) to perfstat without any indirection held inside the
// queue itself. Every move of an event records its new index, so Retime
// can find it in O(1).
func (q *eventQueue) push(ev *Event, swaps *uint64) {
	h := append(*q, ev)
	ev.idx = len(h) - 1
	h.siftUp(ev.idx, swaps)
	*q = h
}

func (q *eventQueue) pop(swaps *uint64) *Event {
	h := *q
	n := len(h) - 1
	root := h[0]
	last := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if n > 0 {
		h[0] = last
		last.idx = 0
		h.siftDown(0, swaps)
	}
	return root
}

// fix restores heap order after the key of the event at index i changed.
func (q eventQueue) fix(i int, swaps *uint64) {
	if i > 0 && before(q[i], q[(i-1)>>2]) {
		q.siftUp(i, swaps)
	} else {
		q.siftDown(i, swaps)
	}
}

func (q eventQueue) siftUp(i int, swaps *uint64) {
	for i > 0 {
		p := (i - 1) >> 2
		if !before(q[i], q[p]) {
			return
		}
		q.swap(i, p)
		*swaps++
		i = p
	}
}

func (q eventQueue) siftDown(i int, swaps *uint64) {
	n := len(q)
	for {
		c := i<<2 + 1
		if c >= n {
			return
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if before(q[j], q[best]) {
				best = j
			}
		}
		if !before(q[best], q[i]) {
			return
		}
		q.swap(i, best)
		*swaps++
		i = best
	}
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}

// heapify restores heap order over the whole slice after a compaction.
func (q eventQueue) heapify(swaps *uint64) {
	for i, ev := range q {
		ev.idx = i
	}
	for i := (len(q) - 2) >> 2; i >= 0; i-- {
		q.siftDown(i, swaps)
	}
}
