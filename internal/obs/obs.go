// Package obs is the single observer handle a simulated deployment is
// built with. Every instrumented layer (cluster, DFS, JobTrackers, fault
// injector, the HybridMR system and its controllers, the Phase I
// profiler, the utilization recorder) takes one *Sinks in its
// constructor and copies out the sinks it records into; a nil handle
// turns every sink off. Each sink is nil-safe on its own, so a handle
// may carry any subset.
package obs

import (
	"sync/atomic"

	"repro/internal/audit"
	"repro/internal/perfstat"
	"repro/internal/sim"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// Sinks bundles the recording sinks of one deployment. Every sink but
// Events is unsynchronized: it must not be shared by engines that run
// concurrently. Events is atomic and may be.
type Sinks struct {
	// Tracer records structured spans and instant events from every
	// layer. Bind sets its clock to the engine.
	Tracer *trace.Tracer
	// Metrics receives every layer's counters, gauges and histograms.
	// When it is set and Perf is not, Bind creates a Perf collector so
	// cost counters surface in the registry as perfstat.* counters.
	Metrics *trace.Registry
	// Audit records every scheduling, migration and fault-recovery
	// decision. Bind sets its clock to the engine.
	Audit *audit.Log
	// Perf collects algorithmic cost counters and wall-time spans.
	Perf *perfstat.Stats
	// TimeSeries collects windowed telemetry: slot waits, task-queue
	// depths, migration and power churn, service latency, and the
	// engine occupancy probes Bind registers. Pair it with a recorder
	// (metrics.NewRecorder) so probe series get sampled.
	TimeSeries *timeseries.Collector
	// Events accumulates the engine's fired-event total, flushed at
	// Run/RunUntil boundaries. Experiment runners share one across every
	// engine a figure builds to attribute simulation events per
	// experiment.
	Events *atomic.Uint64

	// flushed is the Perf counter state at the last Flush.
	flushed perfstat.Counters
}

// Bind attaches the handle to the deployment's engine: it binds the
// tracer and audit clocks, creates Perf when only Metrics is set,
// attaches the engine's perf collector and fired-event sink, and
// registers the engine's occupancy probes on TimeSeries. Call it once
// per engine, before building the layers: a second call would register
// every probe twice.
func (s *Sinks) Bind(engine *sim.Engine) {
	if s.Perf == nil && s.Metrics != nil {
		s.Perf = perfstat.New()
	}
	s.Tracer.SetClock(engine)
	s.Audit.SetClock(engine)
	engine.SetPerf(s.Perf)
	engine.SetFiredSink(s.Events)
	// The probe closures escape, so they would be allocated even for a
	// nil collector; Phase I builds a sink-less rig per training run.
	if ts := s.TimeSeries; ts != nil {
		ts.ProbeCounter("sim.events", "", func() float64 { return float64(engine.Fired()) })
		ts.Probe("sim.pending_events", "", func() float64 { return float64(engine.Pending()) })
		ts.Probe("sim.freelist_events", "", func() float64 { return float64(engine.FreelistLen()) })
		ts.Probe("sim.cancel_debt", "", func() float64 { return float64(engine.CancelDebt()) })
	}
}

// Flush writes the engine's occupancy gauges into Metrics and folds the
// Perf counter increments since the last Flush into it as perfstat.*
// counters. Every counter name is materialized, zero ones included, so
// merged snapshots keep a stable key set. Wall-time spans never enter
// the registry: they are nondeterministic and would break byte-identical
// snapshot comparisons.
func (s *Sinks) Flush(engine *sim.Engine) {
	if s.Metrics == nil {
		return
	}
	s.Metrics.Gauge("engine.pending_events").Set(float64(engine.Pending()))
	s.Metrics.Gauge("engine.freelist_events").Set(float64(engine.FreelistLen()))
	s.Metrics.Gauge("engine.cancel_debt").Set(float64(engine.CancelDebt()))
	if s.Perf == nil {
		return
	}
	delta := s.Perf.C.Delta(s.flushed)
	s.flushed = s.Perf.C
	delta.Each(func(name string, v int64) {
		s.Metrics.Counter("perfstat." + name).Add(float64(v))
	})
}

// Of returns the handle s points to, or the all-off handle when s is
// nil, so constructors read sinks without a nil check.
func Of(s *Sinks) Sinks {
	if s == nil {
		return Sinks{}
	}
	return *s
}
