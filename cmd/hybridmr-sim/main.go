// Command hybridmr-sim drives the simulated hybrid data center and can
// record a structured trace of everything that happens inside it.
//
// Three modes:
//
//   - The default "quickstart" scenario assembles a hybrid cluster
//     (native + virtual partitions), deploys RUBiS, runs Sort and PiEst
//     through the two-phase scheduler, consolidates the VMs of one host
//     via live migration and powers the freed machine off — exercising
//     every traced subsystem in one run.
//   - "job" mode (selected with -scenario job, or implied by an explicit
//     -benchmark flag) runs a single MapReduce benchmark on a chosen
//     cluster shape, as before.
//   - "chaos" mode runs a batch of jobs on a virtual cluster while a
//     seed-deterministic fault injector crashes machines and VMs, wedges
//     TaskTrackers, corrupts DFS replicas and injects stragglers. The run
//     verifies that every job completes and the DFS heals back to target
//     replication, and prints the fault seed so any run can be replayed.
//
// A flag the chosen mode never reads (-invariants, -faults, -fault-seed
// outside chaos; -benchmark, the cluster-shape flags and -parallel
// outside job mode) is refused before any setup, as are the job-mode
// shapes a rig cannot build (-dom0 with -vms-per-pm > 0, -split with
// -vms-per-pm 0).
//
// Usage:
//
//	hybridmr-sim -trace out.json -trace-format chrome -metrics
//	hybridmr-sim -report out.html -audit decisions.jsonl
//	hybridmr-sim -benchmark Sort -data-gb 8 -pms 12 -vms-per-pm 2
//	hybridmr-sim -benchmark Kmeans -pms 24            # native cluster
//	hybridmr-sim -benchmark Sort -pms 24 -dom0        # Dom-0 mode
//	hybridmr-sim -benchmark Sort -pms 24 -vms-per-pm 2 -split
//	hybridmr-sim -benchmark Sort,Kmeans,Wcount -parallel 3
//	hybridmr-sim -policy p2=fifo-p2,drm=static-split
//	hybridmr-sim -benchmark Sort -pms 12 -vms-per-pm 2 -policy p2=locality-p2
//	hybridmr-sim -scenario chaos -seed 7 -fault-seed 99
//	hybridmr-sim -scenario chaos -faults pm-crash=4,block-loss=12,repair-sec=90
//	hybridmr-sim -benchmark Sort -pms 48 -profile-dir prof/
//	hybridmr-sim -scenario chaos -timeseries ts.jsonl -slo slo.json -progress
//
// -cpuprofile, -memprofile and -profile-dir wire the Go runtime
// profilers around the whole run (runtime/pprof format, loadable with
// `go tool pprof`). The HTML report additionally carries a performance
// attribution section: the scheduler's algorithmic cost counters and
// the hierarchical span tree collected by internal/perfstat.
//
// Job mode accepts a comma-separated benchmark list; each benchmark runs
// as its own seeded simulation, fanned across -parallel worker goroutines
// (default GOMAXPROCS) with reports printed in list order, so the output
// does not depend on the worker count. -trace, -metrics, -audit and
// -report all work with a benchmark list too: every run gets its own
// private tracer, registry and decision log, and file outputs gain a
// per-benchmark suffix (out.json becomes out-Sort.json), so concurrent
// engines never interleave and each file stays byte-deterministic.
//
// The trace file loads directly into Perfetto (ui.perfetto.dev) or
// chrome://tracing when written in the default chrome format; -trace-format
// jsonl writes one JSON event per line for ad-hoc processing. -audit
// exports the scheduler's decision log (placement, task assignment,
// speculation, DRM grants, migrations, fault recovery — with candidates
// and reasons) as JSONL. -report writes a self-contained HTML observatory:
// utilization/power timelines, a per-machine swimlane, the filterable
// audit log and per-job critical-path breakdowns, with no external
// assets. All outputs contain only simulated timestamps, so two runs with
// the same seed produce byte-identical files.
//
// -timeseries streams sim-clock-windowed telemetry (counters, gauges and
// histogram digests from the engine, scheduler, DFS and services) as
// JSONL with memory bounded regardless of horizon; -slo evaluates the
// stock service-level objectives over those windows with multi-window
// burn-rate alerting and writes the summary JSON (the report gains
// time-series charts and an SLO burn panel when these are on). Both
// outputs carry only simulated time and stay byte-deterministic.
// -progress prints a live wall-clock heartbeat (elapsed, events/sec,
// percent and ETA where known) to stderr; it reads only atomic state and
// never touches the deterministic artifacts.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	hybridmr "repro"
	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/critpath"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perfstat"
	"repro/internal/progress"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/timeseries"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hybridmr-sim:", err)
		os.Exit(1)
	}
}

// obsConfig is the observability surface requested on the command line.
type obsConfig struct {
	traceFile, traceFormat string
	metricsOn              bool
	auditFile              string
	reportFile             string
	tsFile                 string
	sloFile                string
}

// runObs bundles the observers of one simulation run. Multi-benchmark
// job lists build one per benchmark (with a filename suffix) so
// concurrent engines never share recording state; modes that don't need
// a given observer leave it nil, and every consumer is nil-safe.
type runObs struct {
	cfg    obsConfig
	suffix string // "" or "-<benchmark>" for job lists
	seed   int64

	sinks obs.Sinks
	rec   *metrics.Recorder

	title  string
	simEnd time.Duration
	jobs   []report.JobPath
	perf   *perfstat.Snapshot
}

func newRunObs(cfg obsConfig, suffix string, seed int64) *runObs {
	o := &runObs{cfg: cfg, suffix: suffix, seed: seed}
	if cfg.traceFile != "" || cfg.reportFile != "" {
		o.sinks.Tracer = trace.New(nil)
	}
	if cfg.metricsOn || cfg.traceFile != "" || cfg.reportFile != "" {
		o.sinks.Metrics = trace.NewRegistry()
	}
	if cfg.auditFile != "" || cfg.reportFile != "" {
		o.sinks.Audit = audit.New(0)
	}
	if cfg.tsFile != "" || cfg.sloFile != "" {
		o.sinks.TimeSeries = timeseries.New(0, 0)
	}
	return o
}

// watch attaches a utilization/power recorder to the run's cluster when
// a report or windowed telemetry was requested; the report's timeline
// view reads it back, and its ticks sample the telemetry probes.
func (o *runObs) watch(cl *cluster.Cluster) {
	if o.cfg.reportFile != "" || o.sinks.TimeSeries != nil {
		o.rec = metrics.NewRecorder(cl, 10*time.Second, 0, &o.sinks)
	}
}

// addJob records one completed job's critical-path digest for the
// report. A nil summary (analysis failed) is skipped.
func (o *runObs) addJob(name string, sum *critpath.Summary) {
	if sum != nil {
		o.jobs = append(o.jobs, report.JobPath{Name: name, Path: *sum})
	}
}

// snapPerf records the run's performance-attribution snapshot for the
// report's cost-counter and span-tree section. A nil collector (no
// observers requested) is skipped.
func (o *runObs) snapPerf(ps *perfstat.Stats) {
	if ps != nil {
		sn := ps.Snapshot()
		o.perf = &sn
	}
}

// suffixed inserts the per-benchmark suffix before the file extension:
// out.json -> out-Sort.json.
func suffixed(path, suffix string) string {
	if suffix == "" {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + suffix + ext
}

// finish writes every requested output for one run. The report and the
// audit export are written before the wall-clock throughput gauge is
// set, so their bytes depend only on simulated state; eventsPerSec <= 0
// (multi-benchmark runs, where process-global event counts would mix
// engines) skips the gauge entirely.
func (o *runObs) finish(out io.Writer, eventsPerSec float64) error {
	if o.rec != nil {
		o.rec.Stop()
	}
	// Evaluate SLOs once; the JSON summary, the JSONL rows and the
	// report's burn panel all read the same evaluation.
	var sloRep timeseries.SLOReport
	var sloRows []timeseries.WindowEval
	if o.cfg.sloFile != "" {
		sloRep, sloRows = timeseries.Evaluate(o.sinks.TimeSeries, timeseries.DefaultObjectives())
	}
	if o.cfg.reportFile != "" {
		d := report.Data{
			Title:        o.title,
			Seed:         o.seed,
			SimEnd:       o.simEnd,
			Events:       o.sinks.Tracer.Events(),
			Audit:        o.sinks.Audit.Records(),
			AuditDropped: o.sinks.Audit.Dropped(),
			Metrics:      o.sinks.Metrics.Snapshot(),
			Perf:         o.perf,
			Jobs:         o.jobs,
		}
		if o.rec != nil {
			d.Samples = o.rec.Samples()
			d.EnergyWh = o.rec.EnergyWh()
		}
		if o.sinks.TimeSeries != nil {
			d.TimeSeries = o.sinks.TimeSeries.Snapshot()
		}
		if o.cfg.sloFile != "" {
			d.SLO = &sloRep
			d.SLORows = sloRows
		}
		path, err := o.create(o.cfg.reportFile, func(w io.Writer) error { return report.Write(w, d) })
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nreport: %s (%d trace events, %d audit records, %d jobs profiled)\n",
			path, len(d.Events), len(d.Audit), len(d.Jobs))
	}
	if o.cfg.auditFile != "" {
		path, err := o.create(o.cfg.auditFile, o.sinks.Audit.WriteJSONL)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\naudit: %d decisions -> %s\n", o.sinks.Audit.Len(), path)
	}
	if o.cfg.tsFile != "" {
		// Series windows first, then the SLO evaluation rows (when -slo is
		// on): one JSONL stream carries the full windowed record.
		path, err := o.create(o.cfg.tsFile, func(w io.Writer) error {
			if err := o.sinks.TimeSeries.WriteJSONL(w); err != nil {
				return err
			}
			return timeseries.WriteSLOJSONL(w, sloRows)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\ntimeseries: %d windows x %.0fs -> %s\n",
			o.sinks.TimeSeries.Windows(), o.sinks.TimeSeries.Window().Seconds(), path)
	}
	if o.cfg.sloFile != "" {
		path := suffixed(o.cfg.sloFile, o.suffix)
		data, err := sloRep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nslo: %d objective(s), %d page(s), %d ticket(s) -> %s\n",
			len(sloRep.Objectives), sloRep.Pages, sloRep.Tickets, path)
	}
	// Wall-clock throughput goes to the registry only — never into the
	// report, trace or audit files, which must stay deterministic.
	if eventsPerSec > 0 {
		o.sinks.Metrics.Gauge("engine.events_per_sec").Set(eventsPerSec)
	}
	if o.cfg.traceFile != "" {
		path, err := o.create(o.cfg.traceFile, func(w io.Writer) error {
			return o.sinks.Tracer.Write(w, trace.ExportFormat(o.cfg.traceFormat))
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\ntrace: %d events -> %s (%s format)\n", o.sinks.Tracer.Len(), path, o.cfg.traceFormat)
	}
	if o.cfg.metricsOn {
		fmt.Fprintf(out, "\nmetrics:\n")
		o.sinks.Metrics.Fprint(out)
	}
	return nil
}

// create writes the run's suffixed form of path with write and returns
// the path written.
func (o *runObs) create(path string, write func(io.Writer) error) (string, error) {
	path = suffixed(path, o.suffix)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := write(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hybridmr-sim", flag.ContinueOnError)
	scenario := fs.String("scenario", "", "scenario: quickstart (default), job or chaos")
	bench := fs.String("benchmark", "Sort", "benchmark name or comma-separated list (Twitter, Wcount, PiEst, DistGrep, Sort, Kmeans)")
	parallel := fs.Int("parallel", 0, "worker goroutines for a multi-benchmark job list (0 = GOMAXPROCS; job mode)")
	dataGB := fs.Float64("data-gb", 0, "input size in GB (0 = the paper's size for the benchmark; job mode)")
	pms := fs.Int("pms", 12, "physical machines (job mode)")
	vmsPerPM := fs.Int("vms-per-pm", 0, "VMs per PM (0 = native execution; job mode)")
	dom0 := fs.Bool("dom0", false, "run native work in the privileged domain (job mode, -vms-per-pm 0)")
	split := fs.Bool("split", false, "split TaskTracker/DataNode architecture (job mode, -vms-per-pm > 0)")
	slotCaps := fs.Bool("slot-caps", false, "static Hadoop slot containers (job mode)")
	policyFlag := fs.String("policy", "", "policy selections as k=v pairs, e.g. p2=fifo-p2,drm=static-split,p1.overhead=0.5 (keys: p1, drm, ips, p2, p1.overhead, p2.slowdown)")
	seed := fs.Int64("seed", 1, "simulation seed")
	faults := fs.String("faults", "", "chaos profile, e.g. pm-crash=2,vm-crash=4,block-loss=6 (chaos scenario; default moderate profile)")
	faultSeed := fs.Int64("fault-seed", 0, "fault injection seed (0 = derive from -seed)")
	invariants := fs.Bool("invariants", false, "run the safety-invariant checker over the chaos scenario and fail on any violation")
	traceFile := fs.String("trace", "", "write a structured event trace to this file")
	traceFormat := fs.String("trace-format", "chrome", "trace encoding: chrome (Perfetto-loadable) or jsonl")
	metricsOn := fs.Bool("metrics", false, "print the metrics registry after the run")
	auditFile := fs.String("audit", "", "write the scheduler decision log as JSONL to this file")
	reportFile := fs.String("report", "", "write a self-contained HTML observatory report to this file")
	tsFile := fs.String("timeseries", "", "write windowed time-series telemetry (and SLO evaluations with -slo) as JSONL to this file")
	sloFile := fs.String("slo", "", "evaluate the stock SLOs over the windowed telemetry and write the summary JSON to this file")
	progressOn := fs.Bool("progress", false, "print a live wall-clock heartbeat (events/sec, ETA) to stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a runtime/pprof heap profile to this file on exit")
	profileDir := fs.String("profile-dir", "", "write cpu.pprof and mem.pprof into this directory (overrides -cpuprofile/-memprofile)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// An explicit -benchmark keeps the pre-scenario CLI working: it
	// implies job mode unless the user also picked a scenario.
	mode := *scenario
	if mode == "" && set["benchmark"] {
		mode = "job"
	}
	if mode == "" {
		mode = "quickstart"
	}
	// Validate the scenario, the flags it reads and any -policy
	// selection before anything starts (profilers, progress reporters):
	// a typo or a flag the scenario would silently drop exits non-zero
	// immediately, instead of surfacing after setup already ran.
	switch mode {
	case "quickstart", "job", "chaos":
	default:
		return fmt.Errorf("unknown scenario %q (registered: quickstart, job, chaos)", mode)
	}
	for _, only := range []struct {
		mode  string
		flags []string
	}{
		{"chaos", []string{"invariants", "faults", "fault-seed"}},
		{"job", []string{"benchmark", "pms", "vms-per-pm", "dom0", "split", "slot-caps", "data-gb", "parallel"}},
	} {
		for _, name := range only.flags {
			if set[name] && mode != only.mode {
				return fmt.Errorf("-%s applies only to the %s scenario, not %s", name, only.mode, mode)
			}
		}
	}
	if *dom0 && *vmsPerPM > 0 {
		return fmt.Errorf("-dom0 runs native work in the privileged domain; it does not combine with -vms-per-pm %d", *vmsPerPM)
	}
	if *split && *vmsPerPM <= 0 {
		return fmt.Errorf("-split deploys TaskTracker VMs beside a DataNode VM; it needs -vms-per-pm > 0")
	}
	var policies *hybridmr.PolicySet
	if *policyFlag != "" {
		pspec, err := hybridmr.ParsePolicySpec(*policyFlag)
		if err != nil {
			return err
		}
		// The job and chaos scenarios build a bare rig, with no HybridMR
		// System to take the Phase I, DRM and IPS seams: naming one
		// there would be silently dropped.
		if (mode == "job" || mode == "chaos") &&
			(pspec.Phase1 != "" || pspec.DRM != "" || pspec.IPS != "" || pspec.Overhead > 0) {
			return fmt.Errorf("-policy: the %s scenario has no Phase I, DRM or IPS; only p2 and p2.slowdown apply", mode)
		}
		if policies, err = pspec.Resolve(); err != nil {
			return err
		}
	}

	stopProfiles, err := perfstat.StartProfiles(*cpuProfile, *memProfile, *profileDir)
	if err != nil {
		return err
	}

	cfg := obsConfig{
		traceFile: *traceFile, traceFormat: *traceFormat,
		metricsOn: *metricsOn, auditFile: *auditFile, reportFile: *reportFile,
		tsFile: *tsFile, sloFile: *sloFile,
	}

	// The heartbeat goes to stderr and reads only wall-clock state plus
	// the process-wide atomic event counter, so it can never perturb the
	// deterministic outputs.
	var pr *progress.Reporter
	if *progressOn {
		pr = progress.Start(os.Stderr, mode, 0, 0)
		defer pr.Stop()
	}

	firedBefore := sim.ProcessEvents()
	wallStart := time.Now()
	throughput := func() float64 {
		if wall := time.Since(wallStart).Seconds(); wall > 0 {
			return float64(sim.ProcessEvents()-firedBefore) / wall
		}
		return 0
	}

	runErr := func() error {
		switch mode {
		case "quickstart":
			obs := newRunObs(cfg, "", *seed)
			if err := runQuickstart(*seed, policies, obs, pr, out); err != nil {
				return err
			}
			pr.Stop()
			return obs.finish(out, throughput())
		case "job":
			return runJobs(*bench, jobOptions{
				dataGB: *dataGB, pms: *pms, vmsPerPM: *vmsPerPM,
				dom0: *dom0, split: *split, slotCaps: *slotCaps, seed: *seed,
				policies: policies,
			}, *parallel, cfg, throughput, out)
		case "chaos":
			obs := newRunObs(cfg, "", *seed)
			if err := runChaos(*seed, *faultSeed, *faults, *invariants, policies, obs, out); err != nil {
				return err
			}
			pr.Stop()
			return obs.finish(out, throughput())
		default:
			// Unreachable: the mode was validated before setup.
			return fmt.Errorf("unknown scenario %q (registered: quickstart, job, chaos)", mode)
		}
	}()
	// The profiles must cover the whole run, so they stop only after the
	// scenario finishes (successfully or not).
	if err := stopProfiles(); runErr == nil {
		runErr = err
	}
	return runErr
}

// runQuickstart exercises every traced subsystem: hybrid placement, task
// execution with data locality, interactive-service SLA monitoring, live
// VM migration and PM power management.
func runQuickstart(seed int64, policies *hybridmr.PolicySet, obs *runObs, pr *progress.Reporter, out io.Writer) error {
	obs.title = "quickstart"
	dc, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{
		NativePMs:      4,
		VirtualHostPMs: 4,
		VMsPerHost:     2,
		Seed:           seed,
		Config:         hybridmr.SystemConfig{Policies: policies},
		Tracer:         obs.sinks.Tracer,
		Metrics:        obs.sinks.Metrics,
		Audit:          obs.sinks.Audit,
		TimeSeries:     obs.sinks.TimeSeries,
	})
	if err != nil {
		return err
	}
	defer dc.Close()
	obs.watch(dc.Cluster)

	// The scenario simulates exactly 20 minutes; slicing each RunFor into
	// short chunks gives the heartbeat a completed fraction to show.
	// RunUntil(a); RunUntil(b) is identical to RunUntil(b), so slicing
	// cannot change any deterministic output.
	pr.SetTotal(int64(20 * time.Minute / time.Millisecond))
	runFor := func(d time.Duration) {
		const slice = 30 * time.Second
		for d > 0 {
			c := d
			if c > slice {
				c = slice
			}
			dc.RunFor(c)
			pr.Add(int64(c / time.Millisecond))
			d -= c
		}
	}

	svc, err := dc.DeployService(hybridmr.RUBiS())
	if err != nil {
		return err
	}
	svc.SetClients(1500)

	type submitted struct {
		job       *hybridmr.Job
		placement hybridmr.Placement
	}
	var jobs []submitted
	for _, spec := range []hybridmr.JobSpec{
		hybridmr.Sort().WithInputMB(2 * 1024),
		hybridmr.PiEst(),
	} {
		job, placement, err := dc.SubmitJob(spec, 0, nil)
		if err != nil {
			return err
		}
		jobs = append(jobs, submitted{job, placement})
	}
	runFor(10 * time.Minute)

	// Consolidate: pm-1's two worker VMs move to pm-2 and pm-3, then the
	// emptied machine powers down.
	var migErr error
	for _, move := range []struct{ vm, pm string }{{"vm-1", "pm-2"}, {"vm-5", "pm-3"}} {
		vm := vmByName(dc.VMs, move.vm)
		pm := pmByName(dc.HostPMs, move.pm)
		if vm == nil || pm == nil {
			return fmt.Errorf("quickstart: %s or %s not found", move.vm, move.pm)
		}
		if err := dc.Cluster.Migrate(vm, pm, func(st hybridmr.MigrationStats) {
			fmt.Fprintf(out, "migrated %-5s %s -> %s in %.1fs (downtime %.2fs, %.0f MB moved)\n",
				st.VM, st.From, st.To, st.TotalTime.Seconds(), st.Downtime.Seconds(), st.TransferredMB)
		}); err != nil {
			migErr = err
		}
	}
	if migErr != nil {
		return migErr
	}
	runFor(2 * time.Minute)

	if pm := pmByName(dc.HostPMs, "pm-1"); pm != nil {
		if err := pm.PowerOff(); err != nil {
			return fmt.Errorf("quickstart: power off pm-1: %w", err)
		}
		fmt.Fprintf(out, "powered off pm-1 (%d/%d PMs on)\n",
			dc.Cluster.PoweredOnPMs(), len(dc.Cluster.PMs()))
	}
	runFor(8 * time.Minute)

	fmt.Fprintf(out, "\nquickstart after %s simulated:\n", dc.Now())
	for _, s := range jobs {
		status := "running"
		if s.job.Done() {
			status = fmt.Sprintf("done, JCT %.1fs", s.job.JCT().Seconds())
			if rep, err := s.job.CriticalPath(); err == nil {
				sum := rep.Summary()
				obs.addJob(s.job.Spec.Name, &sum)
			}
		}
		fmt.Fprintf(out, "  %-8s -> %-7s partition  (%s)\n", s.job.Spec.Name, s.placement, status)
	}
	fmt.Fprintf(out, "  RUBiS    -> %.0f ms mean response (%d clients)\n",
		svc.LatencyMs(), svc.Clients())
	obs.snapPerf(dc.Perf)
	obs.simEnd = dc.Now()
	return nil
}

// runChaos runs a batch of jobs on a virtual cluster under fault
// injection: a scheduled PM crash mid-run plus rate-based chaos of every
// other kind, all drawn from the fault seed. It verifies end-to-end
// recovery — every job completes and the DFS heals back to target
// replication — and prints the seeds needed to replay the run. With
// checkInvariants, the runtime safety-invariant checker additionally
// observes every layer and the run fails on any violation.
func runChaos(seed, faultSeed int64, profileSpec string, checkInvariants bool, policies *hybridmr.PolicySet, obs *runObs, out io.Writer) error {
	obs.title = "chaos"
	profile := &fault.Profile{
		VMCrashPerHour:     2,
		TrackerHangPerHour: 4,
		BlockLossPerHour:   6,
		StragglerPerHour:   4,
		Horizon:            30 * time.Minute,
	}
	if profileSpec != "" {
		p, err := fault.ParseProfile(profileSpec)
		if err != nil {
			return err
		}
		profile = p
	}
	if faultSeed == 0 {
		faultSeed = seed + 2
	}
	var inv *invariant.Checker
	if checkInvariants {
		inv = invariant.New()
	}
	rig, err := testbed.New(testbed.Options{
		PMs:        8,
		VMsPerPM:   2,
		Seed:       seed,
		Policies:   policies,
		Obs:        obs.sinks,
		Invariants: inv,
		Faults: &fault.Options{
			Seed: faultSeed,
			// One guaranteed whole-machine crash mid-run, on top of
			// whatever the profile draws.
			Schedule: []fault.ScheduledFault{
				{At: 45 * time.Second, Kind: fault.PMCrash, Target: "pm-1"},
			},
			Profile: profile,
		},
	})
	if err != nil {
		return err
	}
	obs.watch(rig.Cluster)
	if obs.rec != nil {
		rig.OnAllJobsDone = obs.rec.Stop
	}
	results, err := rig.RunJobs([]mapred.JobSpec{
		workload.Sort().WithInputMB(2 * 1024),
		workload.Wcount().WithInputMB(1536),
		workload.DistGrep().WithInputMB(1024),
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "chaos run: seed %d, fault seed %d\n", seed, faultSeed)
	fmt.Fprintf(out, "faults injected: %s\n\n", rig.Faults.Summary())
	for _, r := range results {
		fmt.Fprintf(out, "  %-8s JCT %7.1fs  (map %.1fs, reduce %.1fs)\n",
			r.Name, r.JCT.Seconds(), r.MapPhase.Seconds(), r.ReducePhase.Seconds())
		obs.addJob(r.Name, r.CritPath)
	}
	under, lost := rig.FS.UnderReplicated(), rig.FS.LostBlocks()
	fmt.Fprintf(out, "\nDFS after recovery: %d under-replicated, %d lost\n", under, lost)
	if under != 0 {
		return fmt.Errorf("chaos: %d blocks still under-replicated after recovery", under)
	}
	if inv != nil {
		if vs := inv.Final(); len(vs) > 0 {
			for _, v := range vs {
				fmt.Fprintf(out, "  INVARIANT %s\n", v)
			}
			return fmt.Errorf("chaos: %d safety-invariant violation(s)", len(vs))
		}
		fmt.Fprintln(out, "invariants: all held")
	}
	obs.snapPerf(rig.Obs.Perf)
	obs.simEnd = rig.Engine.Now()
	return nil
}

type jobOptions struct {
	bench         string
	dataGB        float64
	pms, vmsPerPM int
	dom0, split   bool
	slotCaps      bool
	policies      *hybridmr.PolicySet
	seed          int64
}

// runJobs fans a comma-separated benchmark list across the experiment
// worker pool, each on its own seeded rig, and prints the reports in
// list order. Every run records through its own tracer, registry and
// decision log; with more than one benchmark, file outputs gain a
// per-benchmark suffix and the wall-clock throughput gauge is skipped
// (process-global event counts would mix concurrent engines).
func runJobs(benchList string, o jobOptions, parallel int, cfg obsConfig, throughput func() float64, out io.Writer) error {
	var benches []string
	for _, b := range strings.Split(benchList, ",") {
		if b = strings.TrimSpace(b); b != "" {
			benches = append(benches, b)
		}
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark named")
	}
	if len(benches) == 1 {
		o.bench = benches[0]
		obs := newRunObs(cfg, "", o.seed)
		if err := runJob(o, obs, out); err != nil {
			return err
		}
		return obs.finish(out, throughput())
	}
	experiments.Parallelism = parallel
	reports, err := experiments.Map(len(benches), func(i int) (string, error) {
		run := o
		run.bench = benches[i]
		obs := newRunObs(cfg, "-"+benches[i], o.seed)
		var buf bytes.Buffer
		if err := runJob(run, obs, &buf); err != nil {
			return "", fmt.Errorf("%s: %w", benches[i], err)
		}
		if err := obs.finish(&buf, 0); err != nil {
			return "", fmt.Errorf("%s: %w", benches[i], err)
		}
		return buf.String(), nil
	})
	if err != nil {
		return err
	}
	for i, report := range reports {
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprint(out, report)
	}
	return nil
}

// runJob is the original single-benchmark mode.
func runJob(o jobOptions, obs *runObs, out io.Writer) error {
	obs.title = "job: " + o.bench
	spec, err := workload.ByName(o.bench)
	if err != nil {
		return err
	}
	if o.dataGB > 0 {
		if spec.FixedMapWork > 0 {
			return fmt.Errorf("%s is a fixed-work benchmark; -data-gb does not apply", spec.Name)
		}
		spec = spec.WithInputMB(o.dataGB * workload.GB)
	}

	mrCfg := mapred.Config{}
	if o.slotCaps {
		mrCfg.SlotCaps = mapred.DefaultSlotCaps()
	}
	rig, err := testbed.New(testbed.Options{
		PMs:          o.pms,
		VMsPerPM:     o.vmsPerPM,
		Dom0:         o.dom0,
		Split:        o.split,
		Seed:         o.seed,
		Policies:     o.policies,
		MapredConfig: mrCfg,
		Obs:          obs.sinks,
	})
	if err != nil {
		return err
	}
	obs.watch(rig.Cluster)
	if obs.rec != nil {
		// Stop sampling when the job completes: the sampler's periodic
		// ticks would otherwise keep Engine.Run from ever draining.
		rig.OnAllJobsDone = obs.rec.Stop
	}
	res, err := rig.RunJob(spec)
	if err != nil {
		return err
	}
	obs.addJob(res.Name, res.CritPath)
	obs.snapPerf(rig.Obs.Perf)
	obs.simEnd = rig.Engine.Now()
	fmt.Fprintf(out, "benchmark:    %s\n", res.Name)
	fmt.Fprintf(out, "workers:      %d (%d PMs x %d VMs/PM)\n", len(rig.Workers), o.pms, o.vmsPerPM)
	fmt.Fprintf(out, "JCT:          %.1fs\n", res.JCT.Seconds())
	fmt.Fprintf(out, "map phase:    %.1fs\n", res.MapPhase.Seconds())
	fmt.Fprintf(out, "reduce phase: %.1fs\n", res.ReducePhase.Seconds())
	return nil
}

func vmByName(vms []*hybridmr.VM, name string) *hybridmr.VM {
	for _, vm := range vms {
		if vm.Name() == name {
			return vm
		}
	}
	return nil
}

func pmByName(pms []*hybridmr.PM, name string) *hybridmr.PM {
	for _, pm := range pms {
		if pm.Name() == name {
			return pm
		}
	}
	return nil
}
