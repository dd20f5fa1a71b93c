package obs

import (
	"testing"

	"repro/internal/perfstat"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestFlushFoldsDeltasWithoutAllocating pins the flush path RunFor takes
// thousands of times per run: after the first Flush has looked up the
// perfstat.* handles, a Flush adds each counter's increment since the
// last one and allocates nothing.
func TestFlushFoldsDeltasWithoutAllocating(t *testing.T) {
	engine := sim.New()
	s := &Sinks{Metrics: trace.NewRegistry()}
	s.Bind(engine)
	s.Perf.C.DRMSweeps = 3
	s.Flush(engine)
	s.Perf.C.DRMSweeps = 5
	s.Perf.C.FaultInjections = 2
	s.Flush(engine)
	for name, want := range map[string]float64{
		"perfstat.drm.sweeps":       5,
		"perfstat.fault.injections": 2,
		"perfstat.ips.ticks":        0,
	} {
		if got := s.Metrics.Counter(name).Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if n, want := len(s.perfCounters), len(perfstat.CounterNames()); n != want {
		t.Fatalf("%d counter handles, want %d", n, want)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.Perf.C.DRMSweeps++
		s.Flush(engine)
	}); allocs != 0 {
		t.Fatalf("Flush allocates %v times, want 0", allocs)
	}
	if got := s.Metrics.Counter("perfstat.drm.sweeps").Value(); got != 106 {
		t.Errorf("perfstat.drm.sweeps = %v after 101 more increments, want 106", got)
	}
}
