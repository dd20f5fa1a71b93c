// Package progress prints a live wall-clock heartbeat for long runs:
// completed fraction, simulated time, events fired, events/sec and an
// ETA, on stderr. It exists for the human watching a long
// hybridmr-bench -sweep scale run, so everything it prints is
// wall-clock-derived and must never enter a deterministic artifact. The
// engine's state is not goroutine-safe; the only engine value the
// reporter reads from its own goroutine is the atomic processed-event
// total (sim.ProcessEvents), and everything else arrives via the atomic
// setters below.
package progress

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Reporter periodically writes one status line. The zero value is not
// usable; a nil *Reporter accepts every method as a no-op, so callers
// thread one through unconditionally and only construct it when the user
// asked for a heartbeat.
type Reporter struct {
	w        io.Writer
	label    string
	interval time.Duration
	started  time.Time
	start0   uint64 // process-wide event total at Start

	// done/total measure completed work in caller-defined units
	// (sim-time milliseconds, sweep points) as a fraction for the ETA.
	done  atomic.Int64
	total atomic.Int64

	mu      sync.Mutex
	stop    chan struct{}
	stopped bool
	lastLen int
}

// Start launches a heartbeat printing to w every interval (default 1s).
// total is the amount of work in caller-defined units; Set/Add move the
// completed amount. Call Stop when the run finishes.
func Start(w io.Writer, label string, total int64, interval time.Duration) *Reporter {
	if interval <= 0 {
		interval = time.Second
	}
	r := &Reporter{
		w:        w,
		label:    label,
		interval: interval,
		started:  time.Now(),
		start0:   sim.ProcessEvents(),
		stop:     make(chan struct{}),
	}
	r.total.Store(total)
	go r.loop()
	return r
}

// Set reports the completed amount of work.
func (r *Reporter) Set(done int64) {
	if r == nil {
		return
	}
	r.done.Store(done)
}

// Add increments the completed amount of work.
func (r *Reporter) Add(delta int64) {
	if r == nil {
		return
	}
	r.done.Add(delta)
}

// SetTotal replaces the total amount of work, for callers that only
// learn the workload size after starting the heartbeat.
func (r *Reporter) SetTotal(total int64) {
	if r == nil {
		return
	}
	r.total.Store(total)
}

// Stop halts the heartbeat, printing one final line (with a trailing
// newline so subsequent output starts clean). Stop is idempotent.
func (r *Reporter) Stop() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	r.stopped = true
	close(r.stop)
	r.print(true)
}

func (r *Reporter) loop() {
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.mu.Lock()
			if !r.stopped {
				r.print(false)
			}
			r.mu.Unlock()
		}
	}
}

// print renders one status line in place (carriage return, padded to
// cover the previous line). Callers hold r.mu.
func (r *Reporter) print(final bool) {
	elapsed := time.Since(r.started)
	events := sim.ProcessEvents() - r.start0
	evRate := float64(events) / elapsed.Seconds()
	done, total := r.done.Load(), r.total.Load()

	line := fmt.Sprintf("%s: %s elapsed, %d events (%.0f/s)",
		r.label, elapsed.Truncate(time.Second), events, evRate)
	if total > 0 {
		frac := float64(done) / float64(total)
		if frac > 1 {
			frac = 1
		}
		line += fmt.Sprintf(", %.0f%%", frac*100)
		if frac > 0 && frac < 1 {
			eta := time.Duration(float64(elapsed) * (1 - frac) / frac)
			line += fmt.Sprintf(", ETA %s", eta.Truncate(time.Second))
		}
	}
	pad := r.lastLen - len(line)
	if pad < 0 {
		pad = 0
	}
	r.lastLen = len(line)
	end := ""
	if final {
		end = "\n"
	}
	fmt.Fprintf(r.w, "\r%s%*s%s", line, pad, "", end)
}
