package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"

	hybridmr "repro"
	// The facade returns the Phase I profiler but does not re-export its
	// environment constants.
	"repro/internal/profiler"
)

// repMode selects how one repetition is instrumented.
type repMode struct {
	// traced attaches a PerfStats collector, the benchmark's own spans, a
	// PM.Watch solve counter and per-call SubmitJob timing.
	traced bool
	// sinksOff runs the workload with its observability sinks removed
	// (only meaningful for a workload whose sinks are on).
	sinksOff bool
	// setupOnly stops after setup: it times one more set-up and runs
	// nothing.
	setupOnly bool
}

// simOutcome is everything a repetition computes on the simulated clock.
// It must be bit-identical across repetitions of one plan, traced or not.
type simOutcome struct {
	jobs, done   int
	jctP50       float64
	jctTail      float64
	jctTailPct   float64
	energyWh     float64
	slaOKFrac    float64
	slaEpochs    int
	fired        uint64
	cancelled    uint64
	maxPending   int
	attempts     int
	tasks        int
	simEnd       time.Duration
	underRepl    int
	violations   int
	faultSummary string
}

// repResult is one repetition's measurements.
type repResult struct {
	setupS, wallS, cpuS float64
	allocB, heapLiveB   uint64
	gcCycles            uint32
	gcPauseS            float64

	sim simOutcome
	// checks lists the end-of-run checks; a false entry is a failed
	// operation.
	checks map[string]bool
	// firstViolation describes the first invariant breach, if any.
	firstViolation string

	// Traced repetitions only, except the sink record counts.
	perf      *hybridmr.PerfStats
	runC      map[string]int64 // counter deltas over the timed run
	setupC    map[string]int64 // counters at the end of setup
	submitUS  []float64
	solves    int64
	traceEvts int
	auditRecs int
	tsWindows int
}

// runRep builds the deployment, pre-trains Phase I, runs the job stream to
// completion and measures both phases. Setup is everything before the
// first simulated instant; the timed run starts at simulated time zero.
func runRep(p *plan, mode repMode) (*repResult, error) {
	res := &repResult{checks: make(map[string]bool)}
	var ps *hybridmr.PerfStats
	if mode.traced {
		ps = hybridmr.NewPerfStats()
		res.perf = ps
	}
	sinks := p.sinks && !mode.sinksOff

	// The previous repetition's garbage must not be collected on this
	// one's clock.
	runtime.GC()
	setupStart := time.Now()
	ps.Enter("bench.setup")
	spec := p.cluster
	spec.Perf = ps
	spec.Faults = p.faults
	var (
		tracer *hybridmr.Tracer
		reg    *hybridmr.MetricsRegistry
		alog   *hybridmr.AuditLog
		ts     *hybridmr.TimeSeriesCollector
		inv    *hybridmr.InvariantChecker
	)
	if sinks {
		tracer = hybridmr.NewTracer()
		reg = hybridmr.NewMetricsRegistry()
		alog = hybridmr.NewAuditLog(0)
		ts = hybridmr.NewTimeSeries(0, 0)
		inv = hybridmr.NewInvariantChecker()
		spec.Tracer, spec.Metrics, spec.Audit, spec.TimeSeries, spec.Invariants = tracer, reg, alog, ts, inv
	}
	ps.Enter("setup.build")
	hc, err := hybridmr.NewHybridCluster(spec)
	ps.Exit()
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", p.name, err)
	}
	defer hc.Close()
	if mode.traced {
		for _, pm := range hc.Cluster.PMs() {
			pm.Watch(func() { res.solves++ })
		}
	}

	ps.Enter("setup.deploy")
	svcs := make([]*hybridmr.Service, len(p.services))
	for i, sp := range p.services {
		if svcs[i], err = hc.DeployService(sp.spec); err != nil {
			ps.Exit()
			return nil, fmt.Errorf("%s: deploy %s: %w", p.name, sp.spec.Name, err)
		}
		svcs[i].SetClients(sp.trace.clientsAt(0))
	}
	rec := hc.NewRecorder(p.sample)
	ps.Exit()

	// Phase I trains lazily on the first estimate of each job; doing it
	// here for the stream's roster moves that cost into setup, where
	// every run pays it anyway.
	ps.Enter("setup.train")
	prof := hc.System.Profiler()
	for _, js := range p.trainingRoster() {
		for _, part := range []struct {
			jt  *hybridmr.JobTracker
			env profiler.Environment
		}{{hc.NativeJT, profiler.Native}, {hc.VirtualJT, profiler.Virtual}} {
			if part.jt == nil {
				continue
			}
			if _, err := prof.EstimateJCT(js, part.env, len(part.jt.Trackers())); err != nil {
				ps.Exit()
				ps.Exit()
				return nil, fmt.Errorf("%s: pre-train %s: %w", p.name, js.Name, err)
			}
		}
	}
	ps.Exit()
	ps.Exit()
	res.setupS = time.Since(setupStart).Seconds()
	if mode.setupOnly {
		return res, nil
	}
	if ps != nil {
		res.setupC = ps.C.Map()
	}

	jobs := make([]*hybridmr.Job, 0, len(p.jobs))
	done := 0
	// ranOn records the partition each job's input lives on, for cleanup.
	ranOn := map[*hybridmr.Job]*hybridmr.JobTracker{}
	var cleanupErr error
	onDone := func(j *hybridmr.Job) {
		done++
		if jt := ranOn[j]; jt != nil {
			// The JobTracker materializes a job's input under this path.
			if err := jt.FS().Delete(fmt.Sprintf("/jobs/%s-%d/input", j.Spec.Name, j.ID)); err != nil {
				cleanupErr = err
			}
		}
	}
	if mode.traced {
		res.submitUS = make([]float64, 0, len(p.jobs))
	}
	slaOK, epochs := 0, 0
	var submitErr error

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	runStart := time.Now()
	ps.Enter("bench.run")
	next := 0
	for {
		now := hc.Now()
		for next < len(p.jobs) && p.jobs[next].at <= now {
			jp := p.jobs[next]
			next++
			ps.Enter("core.submit")
			t := time.Now()
			job, placed, err := hc.SubmitJob(jp.spec, jp.deadline, onDone)
			if mode.traced {
				res.submitUS = append(res.submitUS, float64(time.Since(t).Nanoseconds())/1e3)
			}
			ps.Exit()
			if err != nil {
				submitErr = err
				continue
			}
			jobs = append(jobs, job)
			if p.cleanup && jp.spec.FixedMapWork == 0 {
				ranOn[job] = hc.VirtualJT
				if placed == hybridmr.PlacedNative {
					ranOn[job] = hc.NativeJT
				}
			}
		}
		if next == len(p.jobs) && done == len(jobs) || now >= simLimit {
			break
		}
		target := (now/p.step + 1) * p.step
		if next < len(p.jobs) && p.jobs[next].at < target {
			target = p.jobs[next].at
		}
		ps.Enter("sim.run")
		hc.RunFor(target - now)
		ps.Exit()
		if len(svcs) > 0 && hc.Now()%p.step == 0 {
			ps.Enter("workload.clients")
			for i, svc := range svcs {
				epochs++
				if !svc.SLAViolated() {
					slaOK++
				}
				svc.SetClients(p.services[i].trace.clientsAt(hc.Now()))
			}
			ps.Exit()
		}
	}
	rec.Stop()
	if sinks {
		ps.Enter("obs.export")
		err = exportSinks(tracer, alog, ts, reg)
		ps.Exit()
		if err != nil {
			return nil, fmt.Errorf("%s: export: %w", p.name, err)
		}
	}
	ps.Exit()
	res.wallS = time.Since(runStart).Seconds()
	res.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	res.allocB = m1.TotalAlloc - m0.TotalAlloc
	res.gcCycles = m1.NumGC - m0.NumGC
	res.gcPauseS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	if ps != nil {
		end := ps.C.Map()
		res.runC = make(map[string]int64, len(end))
		for k, v := range end {
			res.runC[k] = v - res.setupC[k]
		}
	}

	// The live heap is read with the deployment still referenced, after a
	// collection outside the timed region.
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	res.heapLiveB = m2.HeapAlloc

	eng := hc.Cluster.Engine()
	o := simOutcome{
		jobs: len(p.jobs), done: done,
		energyWh: rec.EnergyWh(), slaEpochs: epochs,
		fired: eng.Fired(), cancelled: eng.Cancelled(), maxPending: eng.MaxPending(),
		simEnd: hc.Now(),
	}
	if vs := inv.Final(); len(vs) > 0 {
		o.violations = len(vs)
		res.firstViolation = fmt.Sprint(vs[0])
	}
	if epochs > 0 {
		o.slaOKFrac = float64(slaOK) / float64(epochs)
	} else {
		// No service ran, so no epoch missed its SLA.
		o.slaOKFrac = 1
	}
	var jcts []float64
	for _, j := range jobs {
		if j.Done() {
			jcts = append(jcts, j.JCT().Seconds())
		}
		for _, t := range append(j.Maps(), j.Reduces()...) {
			o.tasks++
			o.attempts += len(t.Attempts())
		}
	}
	sort.Float64s(jcts)
	o.jctP50 = quantile(jcts, 0.5)
	o.jctTailPct, o.jctTail = tail(jcts)
	for _, jt := range []*hybridmr.JobTracker{hc.NativeJT, hc.VirtualJT} {
		if jt != nil {
			o.underRepl += jt.FS().UnderReplicated()
		}
	}
	if p.faults != nil {
		o.faultSummary = hc.Faults.Summary()
	}
	res.sim = o
	res.traceEvts, res.auditRecs, res.tsWindows = tracer.Len(), alog.Len(), ts.Windows()
	runtime.KeepAlive(hc)

	res.checks["submit"] = submitErr == nil
	res.checks["cleanup"] = cleanupErr == nil
	res.checks["dfs-replicated"] = o.underRepl == 0
	res.checks["invariants"] = o.violations == 0
	return res, nil
}

// exportSinks writes every sink's export to io.Discard and evaluates the
// SLOs, as a run that keeps its telemetry would at the end.
func exportSinks(tr *hybridmr.Tracer, log *hybridmr.AuditLog, ts *hybridmr.TimeSeriesCollector, reg *hybridmr.MetricsRegistry) error {
	if err := tr.WriteJSONL(io.Discard); err != nil {
		return err
	}
	if err := log.WriteJSONL(io.Discard); err != nil {
		return err
	}
	if err := ts.WriteJSONL(io.Discard); err != nil {
		return err
	}
	hybridmr.EvaluateSLOs(ts, hybridmr.DefaultSLOObjectives())
	_ = reg.Snapshot()
	return nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tail returns the highest ladder percentile with at least ten samples
// beyond it, and its value; with fewer than twenty samples it falls back
// to the median.
func tail(sorted []float64) (pct, v float64) {
	for _, q := range tailLadder {
		if float64(len(sorted))*(1-q) >= 10 {
			return q * 100, quantile(sorted, q)
		}
	}
	return 50, quantile(sorted, 0.5)
}
