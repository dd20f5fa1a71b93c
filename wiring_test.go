package hybridmr_test

import (
	"sort"
	"strings"
	"testing"
	"time"

	hybridmr "repro"
	"repro/internal/obs"
)

// wiringSinks is one full set of recording sinks plus the invariant
// checker, attached to every deployment shape below.
type wiringSinks struct {
	tracer *hybridmr.Tracer
	reg    *hybridmr.MetricsRegistry
	log    *hybridmr.AuditLog
	ts     *hybridmr.TimeSeriesCollector
	perf   *hybridmr.PerfStats
	inv    *hybridmr.InvariantChecker
}

// wiredShape is a built deployment reduced to what the wiring test drives.
type wiredShape struct {
	submit func(hybridmr.JobSpec) error
	run    func(time.Duration)
	fired  func() uint64
	faults *hybridmr.FaultInjector
	slow   *hybridmr.PM
	close  func()
}

func facadeShape(native, virtual int) func(*testing.T, wiringSinks) wiredShape {
	return func(t *testing.T, s wiringSinks) wiredShape {
		dc, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{
			NativePMs: native, VirtualHostPMs: virtual, VMsPerHost: 2, Seed: 3,
			Tracer: s.tracer, Metrics: s.reg, Audit: s.log, TimeSeries: s.ts,
			Perf: s.perf, Invariants: s.inv,
		})
		if err != nil {
			t.Fatal(err)
		}
		if virtual > 0 {
			svc, err := dc.DeployService(hybridmr.RUBiS())
			if err != nil {
				t.Fatal(err)
			}
			svc.SetClients(800)
		}
		rec := dc.NewRecorder(0)
		return wiredShape{
			submit: func(spec hybridmr.JobSpec) error { _, _, err := dc.SubmitJob(spec, 0, nil); return err },
			run:    dc.RunFor,
			fired:  dc.Cluster.Engine().Fired,
			faults: dc.Faults,
			slow:   dc.Cluster.PMs()[0],
			close:  func() { rec.Stop(); dc.Close() },
		}
	}
}

func rigShape(vmsPerPM int, split bool) func(*testing.T, wiringSinks) wiredShape {
	return func(t *testing.T, s wiringSinks) wiredShape {
		rig, err := hybridmr.NewRig(hybridmr.RigOptions{
			PMs: 4, VMsPerPM: vmsPerPM, Split: split, Seed: 3,
			Obs: obs.Sinks{
				Tracer: s.tracer, Metrics: s.reg, Audit: s.log, TimeSeries: s.ts,
				Perf: s.perf,
			},
			Invariants: s.inv,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := rig.NewRecorder(0)
		return wiredShape{
			submit: func(spec hybridmr.JobSpec) error { _, err := rig.JT.Submit(spec, nil); return err },
			run: func(d time.Duration) {
				rig.Engine.RunUntil(rig.Engine.Now() + d)
				rig.FlushPerf()
			},
			fired:  rig.Engine.Fired,
			faults: rig.Faults,
			slow:   rig.PMs[0],
			close:  rec.Stop,
		}
	}
}

// wiringPins is what one shape's sinks must have recorded.
type wiringPins struct {
	// metrics are the sorted registry counter, gauge and histogram
	// names, perfstat.* excluded (every shape flushes the same table).
	metrics string
	// series are the sorted time-series name/label pairs.
	series string
	// audit are the sorted audit subsystems.
	audit string
}

// The registry names every shape reports (a layer resolves its counters
// when it is built, so they exist even at zero), the time series every
// shape records (the straggler's job, the recorder's gauges and the
// engine probes), and the pins of a testbed rig, which has no Phase I or
// Phase II controllers.
const (
	rigMetrics = `cluster.migration.downtime_sec cluster.migrations.aborted
		cluster.migrations.completed cluster.migrations.retried cluster.pm.crashes
		cluster.pm.power_transitions cluster.vm.crashes cluster.vm.pauses
		dfs.blocks.lost dfs.blocks.rereplicated dfs.blocks.restored dfs.reads.host_local
		dfs.reads.node_local dfs.reads.remote dfs.replicas.corrupted
		engine.cancel_debt engine.freelist_events engine.pending_events
		fault.injections_by_kind.straggler fault.straggler
		mapred.attempt.duration_sec mapred.attempts.killed mapred.attempts.relocated
		mapred.attempts.speculative mapred.jobs.completed mapred.maps.reexecuted
		mapred.shuffle.fetch_failures mapred.task.slot_wait_sec mapred.trackers.blacklisted
		mapred.trackers.lost mapred.trackers.restored`
	rigSeries = `cluster.pms_on/ cluster.power_w/ cluster.util.cpu/ cluster.util.dio/
		cluster.util.mem/ cluster.util.nio/ mapred.task.slot_wait_sec/Sort
		sim.cancel_debt/ sim.events/ sim.freelist_events/ sim.pending_events/`
)

var rigPins = wiringPins{
	metrics: rigMetrics,
	series:  rigSeries + " mapred.tasks.pending/ mapred.tasks.running/",
	audit:   "fault mapred",
}

// TestSinkWiringPerShape attaches every sink and the invariant checker
// to each deployment shape the facade and the testbed can build, and
// pins which layers reported into them. A layer that loses its sinks,
// a JobTracker that loses its probe label, an unbound clock or a fault
// injector the checker no longer hears all fail here.
func TestSinkWiringPerShape(t *testing.T) {
	shapes := []struct {
		name  string
		build func(*testing.T, wiringSinks) wiredShape
		want  wiringPins
	}{
		{"facade-native", facadeShape(4, 0), wiringPins{
			metrics: rigMetrics + " core.placements",
			series:  rigSeries + " mapred.tasks.pending/native mapred.tasks.running/native",
			audit:   "fault mapred phase1",
		}},
		{"facade-virtual", facadeShape(0, 4), wiringPins{
			metrics: rigMetrics + " core.placements drm.cap_adjustments drm.deferrals",
			series:  rigSeries + " mapred.tasks.pending/ mapred.tasks.running/ service.latency_ms/RUBiS",
			audit:   "drm fault mapred phase1",
		}},
		{"facade-hybrid", facadeShape(4, 4), wiringPins{
			metrics: rigMetrics + " core.placements drm.cap_adjustments drm.deferrals",
			series: rigSeries + " mapred.tasks.pending/ mapred.tasks.running/ service.latency_ms/RUBiS" +
				" mapred.tasks.pending/native mapred.tasks.running/native",
			audit: "drm fault mapred phase1",
		}},
		{"rig-native", rigShape(0, false), rigPins},
		{"rig-virtual", rigShape(2, false), rigPins},
		{"rig-split", rigShape(2, true), rigPins},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			s, fired := exerciseShape(t, sh.build, hybridmr.NewInvariantChecker())
			_, firedBare := exerciseShape(t, sh.build, nil)
			// The checker hears an injection only through the injector's
			// hook, and answers it with one zero-delay sweep event; it
			// schedules nothing else, so that event is the whole
			// difference from an unchecked run of the same script.
			if fired != firedBare+1 {
				t.Errorf("injected fault did not reach the invariant checker: %d events fired with it, %d without", fired, firedBare)
			}
			if vs := s.inv.Violations(); len(vs) > 0 {
				t.Errorf("invariant violations: %v", vs)
			}

			snap := s.reg.Snapshot()
			var names []string
			for _, m := range []map[string]float64{snap.Counters, snap.Gauges} {
				for n := range m {
					names = append(names, n)
				}
			}
			for n := range snap.Histograms {
				names = append(names, n)
			}
			var perfstat int
			kept := names[:0]
			for _, n := range names {
				if strings.HasPrefix(n, "perfstat.") {
					perfstat++
					continue
				}
				kept = append(kept, n)
			}
			if perfstat == 0 {
				t.Error("no perfstat.* counters flushed into the registry")
			}
			var series []string
			for _, ss := range s.ts.Snapshot() {
				series = append(series, ss.Name+"/"+ss.Label)
			}
			subsystems := map[string]bool{}
			var lastAudit time.Duration
			for _, r := range s.log.Records() {
				subsystems[r.Subsystem] = true
				lastAudit = max(lastAudit, r.At)
			}
			var audits []string
			for sub := range subsystems {
				audits = append(audits, sub)
			}
			got := wiringPins{metrics: joinSorted(kept), series: joinSorted(series), audit: joinSorted(audits)}
			want := wiringPins{
				metrics: joinSorted(strings.Fields(sh.want.metrics)),
				series:  joinSorted(strings.Fields(sh.want.series)),
				audit:   joinSorted(strings.Fields(sh.want.audit)),
			}
			if got != want {
				t.Errorf("pins differ\n got: %#v\nwant: %#v", got, want)
			}

			var lastTrace time.Duration
			for _, ev := range s.tracer.Events() {
				lastTrace = max(lastTrace, ev.Start)
			}
			if lastTrace <= 0 || lastAudit <= 0 {
				t.Errorf("sink clocks unbound: last trace event at %v, last audit record at %v", lastTrace, lastAudit)
			}
			if s.perf.Snapshot().Counters["engine.events_fired"] == 0 {
				t.Error("engine fired no events into the perf collector")
			}
		})
	}
}

// exerciseShape builds one shape with every sink attached (inv may be
// nil), runs a small Sort job with a straggler injected mid-run, and
// returns the sinks and the number of events the engine fired.
func exerciseShape(t *testing.T, build func(*testing.T, wiringSinks) wiredShape, inv *hybridmr.InvariantChecker) (wiringSinks, uint64) {
	s := wiringSinks{
		tracer: hybridmr.NewTracer(),
		reg:    hybridmr.NewMetricsRegistry(),
		log:    hybridmr.NewAuditLog(0),
		ts:     hybridmr.NewTimeSeries(0, 0),
		perf:   hybridmr.NewPerfStats(),
		inv:    inv,
	}
	w := build(t, s)
	defer w.close()
	if err := w.submit(hybridmr.Sort().WithInputMB(512)); err != nil {
		t.Fatal(err)
	}
	w.run(20 * time.Second)
	w.faults.SlowPM(w.slow, 2, 10*time.Second)
	w.run(70 * time.Second)
	return s, w.fired()
}

func joinSorted(s []string) string {
	sort.Strings(s)
	return strings.Join(s, " ")
}
