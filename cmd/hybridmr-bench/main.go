// Command hybridmr-bench regenerates the paper's tables and figures and
// runs the chaos, scale and policy sweep harnesses.
//
// Usage:
//
//	hybridmr-bench [-scale 1.0] [-parallel 8] [-only fig1a,fig8b] [-list] [-json] [-check] [-out FIDELITY.json]
//	hybridmr-bench -sweep chaos|scale|policy [-seed N] [-sizes 24,96,384] [-budget N] [-out PATH]
//	hybridmr-bench -replay CHAOS.json
//
// Each experiment prints the same rows/series the paper plots, followed
// by headline notes comparing measured numbers against the paper's
// claims. Running everything at -scale 1 takes a few minutes; smaller
// scales shrink the input data sizes proportionally.
//
// Independent sweep points within each experiment fan out across
// -parallel worker goroutines (default: GOMAXPROCS). Every sweep point
// builds its own seeded simulation, and results are assembled in a fixed
// order, so tables and notes are byte-identical at any worker count —
// only the wall-clock time changes.
//
// With -json, each experiment additionally writes a BENCH_<id>.json file
// recording its wall-clock time, simulation events fired and events per
// second, so the performance trajectory can be tracked across revisions.
// Experiments run one at a time, so the events fired are the
// sim.ProcessEvents delta around each run, nested Phase I training
// simulations and concurrent sweep points included. Records
// also embed the experiment's merged metrics-registry snapshot (scheduler
// counters, utilization gauges, latency histogram quantiles) and, where
// the experiment surfaces them, per-benchmark critical-path summaries;
// the merge is order-independent, so these too are byte-identical at any
// worker count.
//
// With -check, every experiment's outcome is additionally judged against
// the paper-fidelity assertion suite (internal/fidelity): the headline
// claim of each figure as a machine-checkable predicate, with documented
// waivers where the simulator knowingly diverges. The verdicts are
// written to -out (default FIDELITY.json), a summary table is printed,
// and the command exits non-zero if any unwaived assertion fails. The
// fidelity report carries no timestamps, so it is byte-identical at any
// -parallel value.
//
// -sweep chaos|scale|policy runs a sweep harness instead, on one path:
// run it, write its artifact to -out, print a summary, run its guards.
// Unset -seed, -budget, -sizes and -out take the kind's defaults:
//
//	chaos   seed 1, budget 200 schedules, CHAOS.json
//	scale   seed 1, sizes 24,96,384, PERF.json
//	policy  seed 11, budget 24 (the -grid random size), SEARCH.json
//
// chaos fuzzes correlated-fault schedules through the invariant checker
// and minimizes the first violation into a byte-deterministic repro
// (-break-recovery seeds a recovery bug to prove it is caught; -replay
// re-runs a repro and fails while it reproduces). scale fits each
// controller's cost growth O(n^k) over the cluster sizes; its report
// section is byte-deterministic, and with two or more sizes it fails if
// jt, drm or p1 grows past O(n^1.2). The datacenter-scale points are
// -sweep scale -sizes 2500,10000 -out SCALEUP.json. policy scores a
// policy grid (-grid smoke, full or random) for the JCT/energy/SLA
// Pareto frontier; -report adds an observatory HTML.
//
// -cpuprofile, -memprofile and -profile-dir wire the Go runtime
// profilers around whichever mode runs, for use with go tool pprof.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/chaossearch"
	"repro/internal/critpath"
	"repro/internal/experiments"
	"repro/internal/fidelity"
	"repro/internal/invariant"
	"repro/internal/jsonenc"
	"repro/internal/perfstat"
	"repro/internal/policy"
	"repro/internal/policysearch"
	"repro/internal/progress"
	"repro/internal/report"
	"repro/internal/scalesweep"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchRecord is the machine-readable per-experiment performance report
// written by -json.
type benchRecord struct {
	Name         string  `json:"name"`
	Scale        float64 `json:"scale"`
	Parallel     int     `json:"parallel"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsFired  uint64  `json:"events_fired"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Metrics is the experiment's merged metrics-registry snapshot:
	// counters and histogram buckets summed across sweep points, gauges
	// taking the max. Deterministic at any -parallel value.
	Metrics trace.Snapshot `json:"metrics"`
	// CritPaths holds per-benchmark critical-path digests where the
	// experiment computes them (e.g. fig1a's native runs).
	CritPaths map[string]critpath.Summary `json:"critical_paths,omitempty"`
}

func writeBenchJSON(rec benchRecord) error {
	data, err := jsonenc.Artifact(rec)
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_"+rec.Name+".json", data, 0o644)
}

// options holds the parsed command line.
type options struct {
	// Figure mode.
	scale                     float64
	parallel                  int
	only                      string
	ext, list, jsonOut, check bool
	// Sweeps; seed, budget and out are resolved per mode by parseArgs.
	sweep, sizes, out    string
	seed                 int64
	budget               int
	replay, grid, report string
	breakRecovery        bool
	// Observation.
	progress                           bool
	cpuprofile, memprofile, profileDir string
}

// modeDefaults are the values an unset -seed, -budget or -out takes in
// each mode; the empty kind is figure mode, whose -out is the -check
// report.
var modeDefaults = map[string]struct {
	seed   int64
	budget int
	out    string
}{
	"":       {out: "FIDELITY.json"},
	"chaos":  {seed: 1, budget: 200, out: "CHAOS.json"},
	"scale":  {seed: 1, out: "PERF.json"},
	"policy": {seed: 11, budget: 24, out: "SEARCH.json"},
}

func newFlags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("hybridmr-bench", flag.ContinueOnError)
	fs.Float64Var(&o.scale, "scale", 1.0, "input-size scale factor (1 = paper sizes)")
	fs.IntVar(&o.parallel, "parallel", 0, "worker goroutines per experiment (0 = GOMAXPROCS)")
	fs.StringVar(&o.only, "only", "", "comma-separated experiment ids (default: all)")
	fs.BoolVar(&o.ext, "ext", false, "include the extension and ablation experiments")
	fs.BoolVar(&o.list, "list", false, "list experiment ids and exit")
	fs.BoolVar(&o.jsonOut, "json", false, "write BENCH_<id>.json perf records")
	fs.BoolVar(&o.check, "check", false, "run the paper-fidelity assertion suite (implies -ext)")
	fs.StringVar(&o.sweep, "sweep", "", "run a sweep harness instead of the figure experiments: chaos, scale or policy")
	fs.Int64Var(&o.seed, "seed", 0, "sweep seed (default: chaos 1, scale 1, policy 11)")
	fs.StringVar(&o.sizes, "sizes", "", "comma-separated increasing total-PM counts for -sweep scale (default 24,96,384)")
	fs.IntVar(&o.budget, "budget", 0, "schedules for -sweep chaos (default 200), or the -grid random size for -sweep policy (default 24)")
	fs.StringVar(&o.out, "out", "", "artifact path (default: FIDELITY.json with -check, else CHAOS.json, PERF.json or SEARCH.json per -sweep)")
	fs.StringVar(&o.replay, "replay", "", "replay a minimized CHAOS.json repro instead of running anything else")
	fs.BoolVar(&o.breakRecovery, "break-recovery", false, "disable map re-execution under -sweep chaos, to prove the harness catches a broken recovery path")
	fs.StringVar(&o.grid, "grid", "smoke", "candidate grid for -sweep policy: smoke, full or random")
	fs.StringVar(&o.report, "report", "", "also write a search observatory HTML to this path (with -sweep policy)")
	fs.BoolVar(&o.progress, "progress", false, "print a live wall-clock heartbeat (completed points, events/sec, ETA) to stderr")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.profileDir, "profile-dir", "", "write cpu.pprof and mem.pprof into this directory (overrides -cpuprofile/-memprofile)")
	return fs
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hybridmr-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	if o.list {
		for _, e := range append(experiments.All(), experiments.Extensions()...) {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Title)
		}
		return nil
	}
	stopProfiles, err := perfstat.StartProfiles(o.cpuprofile, o.memprofile, o.profileDir)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}()
	experiments.Scale = o.scale
	experiments.Parallelism = o.parallel

	// The heartbeat prints to stderr from its own goroutine and reads
	// only atomic state, so it cannot disturb any deterministic output.
	var pr *progress.Reporter
	if o.progress {
		pr = progress.Start(os.Stderr, "bench", 0, 0)
		defer pr.Stop()
	}

	if o.replay != "" {
		return runChaosReplay(o.replay, stdout)
	}
	if o.sweep == "" {
		return runFigures(o, pr, stdout)
	}
	return runSweep(o, pr, stdout)
}

// parseArgs parses the command line and gives every unset -seed,
// -budget and -out its mode's default.
func parseArgs(args []string) (options, error) {
	var o options
	fs := newFlags(&o)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	d, ok := modeDefaults[o.sweep]
	if !ok {
		return o, fmt.Errorf("unknown -sweep %q (chaos, scale or policy)", o.sweep)
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["seed"] {
		o.seed = d.seed
	}
	if !set["budget"] {
		o.budget = d.budget
	}
	if !set["out"] {
		o.out = d.out
	}
	if o.budget < 1 && (o.sweep == "chaos" || o.sweep == "policy" && o.grid == "random") {
		return o, fmt.Errorf("-budget must be at least 1 (got %d)", o.budget)
	}
	return o, nil
}

// runFigures runs the selected paper experiments, then the fidelity
// gate.
func runFigures(o options, pr *progress.Reporter, stdout io.Writer) error {
	var selected []experiments.Experiment
	if o.only == "" {
		selected = experiments.All()
		// The fidelity gate covers the extensions too: every registered
		// experiment must face its assertions.
		if o.ext || o.check {
			selected = append(selected, experiments.Extensions()...)
		}
	} else {
		for _, id := range strings.Split(o.only, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	rep := &fidelity.Report{Scale: o.scale}
	pr.SetTotal(int64(len(selected)))
	for _, e := range selected {
		start := time.Now()
		before := sim.ProcessEvents()
		outcome, err := e.Run()
		if err != nil {
			if o.check {
				// The gate reports a broken experiment as a failure
				// rather than aborting the remaining figures.
				rep.Add(fidelity.FigureResult{ID: e.ID, Error: err.Error()})
				fmt.Fprintf(stdout, "%s: ERROR: %v\n\n", e.ID, err)
				continue
			}
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		wall := time.Since(start).Seconds()
		// Nothing else runs an engine meanwhile, so the delta is this
		// experiment's own.
		fired := sim.ProcessEvents() - before
		outcome.Fprint(stdout)
		fmt.Fprintf(stdout, "  (%s completed in %.1fs wall time)\n\n", e.ID, wall)
		if o.jsonOut {
			rec := benchRecord{
				Name: e.ID, Scale: o.scale, Parallel: experiments.Workers(),
				WallSeconds: wall, EventsFired: fired,
				Metrics: outcome.Metrics, CritPaths: outcome.CritPaths,
			}
			if wall > 0 {
				rec.EventsPerSec = float64(fired) / wall
			}
			if err := writeBenchJSON(rec); err != nil {
				return fmt.Errorf("%s: write bench json: %w", e.ID, err)
			}
		}
		if o.check {
			fr := fidelity.Evaluate(e.ID, outcome, o.scale)
			fr.WallSeconds = wall
			fr.EventsFired = fired
			rep.Add(fr)
		}
		pr.Add(1)
	}

	if !o.check {
		return nil
	}
	data, err := jsonenc.Artifact(rep)
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, data, 0o644); err != nil {
		return fmt.Errorf("write fidelity report: %w", err)
	}
	rep.Summary(stdout)
	if rep.HasFailures() {
		return fmt.Errorf("fidelity: %d assertion(s) failed (see %s)", rep.Failed, o.out)
	}
	return nil
}

// sweepRun is what one -sweep kind hands the shared path: the artifact
// for -out, the summary to print after writing it, and the guards to
// run last (nil when the kind has none).
type sweepRun struct {
	artifact any
	summary  string
	guard    func(stdout io.Writer) error
}

// runSweep runs one -sweep kind: harness, artifact, summary, guards.
func runSweep(o options, pr *progress.Reporter, stdout io.Writer) error {
	var s sweepRun
	var err error
	switch o.sweep {
	case "chaos":
		s, err = chaosSweep(o)
	case "scale":
		s, err = scaleSweep(o, pr)
	case "policy":
		s, err = policySweep(o, pr)
	}
	if err != nil {
		return err
	}
	data, err := jsonenc.Artifact(s.artifact)
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", o.out, err)
	}
	io.WriteString(stdout, s.summary)
	fmt.Fprintf(stdout, "wrote %s\n", o.out)
	if s.guard == nil {
		return nil
	}
	return s.guard(stdout)
}

// chaosSweep fuzzes random correlated-fault schedules through the
// runtime invariant checker and minimizes the first failure found into
// a byte-deterministic repro. Its guard fails on any violation.
func chaosSweep(o options) (sweepRun, error) {
	tpl := chaossearch.DefaultTemplate()
	tpl.BreakMapRecovery = o.breakRecovery
	rep, err := chaossearch.Search(tpl, o.seed, o.budget)
	if err != nil {
		return sweepRun{}, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "chaos search: %d schedule(s) against template %s (seed %d)\n", o.budget, tpl.Name, o.seed)
	if rep.FailingIndex < 0 {
		sb.WriteString("all invariants held\n")
		return sweepRun{artifact: rep, summary: sb.String()}, nil
	}
	fmt.Fprintf(&sb, "trial %d violated invariants; minimized %d faults -> %d in %d run(s)\n",
		rep.FailingIndex, rep.OriginalFaults, len(rep.Schedule), rep.MinimizeRuns)
	printViolations(&sb, rep.Violations)
	return sweepRun{artifact: rep, summary: sb.String(), guard: func(io.Writer) error {
		return fmt.Errorf("chaos search found %d invariant violation(s) (replay with -replay %s)", len(rep.Violations), o.out)
	}}, nil
}

// scaleSweep runs the weak-scaling scenario at each -sizes cluster size.
// Its guard enforces the indexed controllers' growth ceiling when at
// least two sizes ran.
func scaleSweep(o options, pr *progress.Reporter) (sweepRun, error) {
	sizes, err := parseSizes(o.sizes)
	if err != nil {
		return sweepRun{}, err
	}
	pr.SetTotal(int64(len(sizes)))
	f, err := scalesweep.Run(scalesweep.Options{
		Sizes: sizes, Seed: o.seed,
		OnPointDone: func() { pr.Add(1) },
	})
	if err != nil {
		return sweepRun{}, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Scale sweep over PM counts %v (seed %d):\n", f.Report.Sizes, o.seed)
	for i, w := range f.Wall {
		r := f.Report.Results[i]
		eps := 0.0
		if w.WallSeconds > 0 {
			eps = float64(r.EventsFired) / w.WallSeconds
		}
		fmt.Fprintf(&sb, "  %5d PMs: %d trackers, %d jobs, %d events in %.2fs (%.0f events/sec)\n",
			r.Size, r.Trackers, r.Jobs, r.EventsFired, w.WallSeconds, eps)
	}
	for _, c := range f.Report.Controllers {
		note := ""
		if c.Superlinear {
			note = "  SUPERLINEAR"
		}
		fmt.Fprintf(&sb, "  growth %-8s %-10s via %s%s\n", c.Name, c.Complexity, c.DrivenBy, note)
	}
	return sweepRun{artifact: f, summary: sb.String(), guard: func(stdout io.Writer) error {
		if len(f.Report.Sizes) < 2 {
			return nil
		}
		var busts []string
		for _, c := range scalesweep.OverCeiling(f.Report.Controllers) {
			busts = append(busts, fmt.Sprintf("%s grows %s via %s, ceiling O(n^%.1f)",
				c.Name, c.Complexity, c.DrivenBy, scalesweep.AcceptanceCeiling))
		}
		if len(busts) > 0 {
			return fmt.Errorf("scale growth regression (indexed controller past the ceiling):\n  %s",
				strings.Join(busts, "\n  "))
		}
		fmt.Fprintf(stdout, "indexed controllers %s within O(n^%.1f)\n",
			strings.Join(scalesweep.IndexedControllers, ", "), scalesweep.AcceptanceCeiling)
		return nil
	}}, nil
}

// parseSizes parses the -sizes list; empty leaves the sweep's default.
// The list must be strictly increasing (smallest first): a repeated
// size leaves nothing to fit a growth exponent over.
func parseSizes(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 2 {
			return nil, fmt.Errorf("bad -sizes entry %q", part)
		}
		if len(sizes) > 0 && n <= sizes[len(sizes)-1] {
			return nil, fmt.Errorf("-sizes %q must be strictly increasing", s)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// policySweep scores a candidate grid across the worker pool for the
// Pareto frontier, optionally rendering a search observatory seeded
// with the winner's audit trail. SEARCH.json is whole-file
// deterministic.
func policySweep(o options, pr *progress.Reporter) (sweepRun, error) {
	var grid []policy.Spec
	switch o.grid {
	case "smoke":
		grid = policysearch.SmokeGrid()
	case "full":
		grid = policysearch.FullGrid()
	case "random":
		grid = policysearch.RandomGrid(o.budget, o.seed)
	default:
		return sweepRun{}, fmt.Errorf("unknown -grid %q (smoke, full or random)", o.grid)
	}
	pr.SetTotal(int64(len(grid)))
	start := time.Now()
	f, winnerLog, err := policysearch.Run(policysearch.Options{
		Grid: grid, Seed: o.seed,
		OnPointDone: func() { pr.Add(1) },
	})
	if err != nil {
		return sweepRun{}, err
	}
	wall := time.Since(start).Seconds()
	rep := f.Report
	var sb strings.Builder
	fmt.Fprintf(&sb, "Policy search over %d candidate(s) (%s grid, seed %d):\n", len(rep.Candidates), o.grid, o.seed)
	var events int64
	for _, c := range rep.Candidates {
		events += c.EventsFired
		mark := " "
		if c.Pareto {
			mark = "*"
		}
		fmt.Fprintf(&sb, "  %s jct %7.1fs  energy %8.1f Wh  sla-viol %5.3f  %s\n",
			mark, c.Objectives.MeanJCTSec, c.Objectives.EnergyWh, c.Objectives.SLAViolationRate, c.Policy)
	}
	fmt.Fprintf(&sb, "frontier: %d point(s); * marks Pareto-optimal candidates\n", len(rep.Frontier))
	if rep.Winner != nil {
		fmt.Fprintf(&sb, "winner (min energy on frontier): %s\n", rep.Winner.Policy)
		fmt.Fprintf(&sb, "  %d audited decision(s) across %d (stage, action) pair(s)\n",
			rep.Winner.Decisions, len(rep.Winner.ByStage))
		if rep.Winner.FirstPlacement != "" {
			fmt.Fprintf(&sb, "  first placement: %s\n", rep.Winner.FirstPlacement)
		}
	}

	if o.report != "" {
		points := make([]report.SearchPoint, 0, len(rep.Candidates))
		for _, c := range rep.Candidates {
			points = append(points, report.SearchPoint{
				Policy:           c.Policy,
				MeanJCTSec:       c.Objectives.MeanJCTSec,
				EnergyWh:         c.Objectives.EnergyWh,
				SLAViolationRate: c.Objectives.SLAViolationRate,
				Pareto:           c.Pareto,
				Winner:           rep.Winner != nil && c.Policy == rep.Winner.Policy,
			})
		}
		d := report.Data{Title: "policy search (" + o.grid + " grid)", Seed: o.seed, Search: points}
		if winnerLog != nil {
			d.Audit = winnerLog.Records()
			d.AuditDropped = winnerLog.Dropped()
		}
		var buf strings.Builder
		if err := report.Write(&buf, d); err != nil {
			return sweepRun{}, err
		}
		if err := os.WriteFile(o.report, []byte(buf.String()), 0o644); err != nil {
			return sweepRun{}, fmt.Errorf("write %s: %w", o.report, err)
		}
		fmt.Fprintf(&sb, "wrote %s\n", o.report)
	}

	eps := 0.0
	if wall > 0 {
		eps = float64(events) / wall
	}
	fmt.Fprintf(&sb, "search fired %d events in %.2fs wall time (%.0f events/sec)\n", events, wall, eps)
	return sweepRun{artifact: f, summary: sb.String()}, nil
}

// runChaosReplay re-runs a minimized CHAOS.json repro and reports what
// the invariant checker observes. Reproducing the recorded violation is
// still a failing exit: the repro exists to be fixed, not admired.
func runChaosReplay(path string, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep, err := chaossearch.Load(data)
	if err != nil {
		return err
	}
	vs, err := chaossearch.Replay(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replayed %d fault(s) from %s against template %s\n",
		len(rep.Schedule), path, rep.Template.Name)
	if len(vs) == 0 {
		fmt.Fprintln(stdout, "no invariant violations: the repro no longer fires (fixed?)")
		return nil
	}
	printViolations(stdout, vs)
	return fmt.Errorf("replay reproduced %d invariant violation(s)", len(vs))
}

// printViolations lists violations, truncated: the full set is in the
// JSON artifact, the console only needs the shape of the breach.
func printViolations(w io.Writer, vs []invariant.Violation) {
	const keep = 8
	for i, v := range vs {
		if i == keep {
			fmt.Fprintf(w, "  ... and %d more (see the JSON report)\n", len(vs)-keep)
			return
		}
		fmt.Fprintf(w, "  %s\n", v)
	}
}
