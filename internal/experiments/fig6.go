package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// Fig6a reproduces Figure 6(a): Phase I profiling accuracy. The profiler
// trains on small clusters and data fractions, then predicts Sort JCTs
// across a grid of cluster and data sizes; each sample's estimate is
// compared with an actual simulated run. The paper reports 10.8% mean
// error with 9.7% standard deviation.
func Fig6a() (*Outcome, error) {
	pool := newMetricsPool()
	prof := profiler.New(core.SimRunner(testbed.Options{Seed: 601}), nil)
	// Profile a slightly denser training grid than the placement default,
	// as the paper's accuracy study accumulates more history.
	prof.TrainNodes = []int{4, 8, 16}
	prof.TrainFractions = []float64{0.05, 0.10, 0.20}
	out := &Outcome{Table: &Table{
		ID:      "fig6a",
		Title:   "Actual vs estimated Sort JCT (s) across 24 samples",
		Columns: []string{"sample", "VMs", "data(GB)", "actual", "estimated", "err"},
	}}
	vmGrid := []int{8, 12, 16, 20, 24, 32}
	gbGrid := []float64{4, 6, 8, 10}
	// The actual runs are independent sweep points and fan out across the
	// pool; the estimates share the profiler's training database (mutable
	// state that accumulates lazily), so they stay serial in grid order.
	actualRes, err := Map(len(vmGrid)*len(gbGrid), func(i int) (testbed.JobResult, error) {
		vms := vmGrid[i/len(gbGrid)]
		gb := gbGrid[i%len(gbGrid)]
		spec := workload.Sort().WithInputMB(scaledMB(gb * workload.GB))
		res, err := virtualJCT(spec, vms, 607, pool)
		if err != nil {
			return testbed.JobResult{}, fmt.Errorf("fig6a actual: %w", err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	var actuals, estimates []float64
	sample := 0
	for vi, vms := range vmGrid {
		for gi, gb := range gbGrid {
			spec := workload.Sort().WithInputMB(scaledMB(gb * workload.GB))
			est, err := prof.EstimateJCT(spec, profiler.Virtual, vms)
			if err != nil {
				return nil, fmt.Errorf("fig6a estimate: %w", err)
			}
			actual := actualRes[vi*len(gbGrid)+gi].JCT.Seconds()
			actuals = append(actuals, actual)
			estimates = append(estimates, est)
			sample++
			out.Table.AddCells(
				Str(fmt.Sprintf("%d", sample)),
				Int(vms),
				F0(gb),
				F1(actual),
				F1(est),
				Pct(absf(actual-est)/actual),
			)
		}
	}
	errs := stats.AbsPercentErrors(actuals, estimates)
	out.Notef("mean profiling error %.1f%% ± %.1f%% (paper: 10.8%% ± 9.7%%)",
		stats.Mean(errs)*100, stats.StdDev(errs)*100)
	out.Scalar("mean_err", stats.Mean(errs))
	out.Scalar("stddev_err", stats.StdDev(errs))
	out.Metrics = pool.snapshot()
	return out, nil
}

// interferenceRig builds the paper's quad-core interference testbed: one
// 4-core PM hosting 4 VMs whose vCPUs float across all cores (the study
// runs 8 concurrent threads, so guests are not confined to one core).
func interferenceRig(sinks *obs.Sinks) (*sim.Engine, []*cluster.VM, error) {
	engine := sim.New()
	sinks.Bind(engine)
	cl := cluster.New(engine, cluster.Config{Cores: 4}, 613, sinks)
	pm := cl.AddPM("quad")
	vms := make([]*cluster.VM, 0, 4)
	for i := 0; i < 4; i++ {
		vm, err := cl.AddVM(fmt.Sprintf("vm-%d", i), pm, 4, 1024)
		if err != nil {
			return nil, nil, err
		}
		vms = append(vms, vm)
	}
	return engine, vms, nil
}

// victimJCT runs a victim task on vms[0] with antagonists spreading the
// given total CPU (cores) and disk (MB/s) demand over vms[1:3], and
// returns the victim's completion time in seconds.
func victimJCT(victim resource.Vector, antagonistCPU, antagonistDisk float64, pool *metricsPool) (float64, error) {
	sinks := pool.sinks()
	engine, vms, err := interferenceRig(&sinks)
	if err != nil {
		return 0, err
	}
	// The victim VM competes like a single busy thread; antagonist VMs
	// carry as much scheduler weight as the threads they run, as the Xen
	// credit scheduler grants runnable vCPUs.
	vms[0].SetWeight(1)
	for i := 1; i < 4; i++ {
		demand := resource.NewVector(antagonistCPU/3, 128, antagonistDisk/3, 0)
		if demand.IsZero() {
			vms[i].SetWeight(0.01)
			continue
		}
		threads := antagonistCPU / 3
		if threads < 1 {
			threads = 1
		}
		vms[i].SetWeight(threads)
		hog := &cluster.Consumer{
			Name:   fmt.Sprintf("antagonist-%d", i),
			Demand: demand,
			Work:   cluster.OpenEnded,
		}
		if err := vms[i].Start(hog); err != nil {
			return 0, err
		}
	}
	done := -1.0
	task := &cluster.Consumer{Name: "victim", Demand: victim, Work: 100}
	task.OnComplete = func() { done = engine.Now().Seconds() }
	if err := vms[0].Start(task); err != nil {
		return 0, err
	}
	engine.RunUntil(sim.DurationFromSeconds(100_000))
	if done < 0 {
		return 0, fmt.Errorf("victim starved")
	}
	return done, nil
}

// piVictim and sortVictim mirror the paper's CPU-bound PiEst and
// I/O-bound Sort probes.
func piVictim() resource.Vector   { return resource.NewVector(1, 180, 0, 0) }
func sortVictim() resource.Vector { return resource.NewVector(0.2, 380, 60, 0) }

// interferenceSweep runs the Figure 6(b)/(c) shape: both victims at each
// antagonist level (index 0 is the unloaded baseline pair), fanned across
// the pool.
type victimPair struct{ pi, srt float64 }

func interferenceSweep(levels []float64, load func(level float64) (cpu, disk float64), pool *metricsPool) (base victimPair, points []victimPair, err error) {
	results, err := Map(len(levels)+1, func(i int) (victimPair, error) {
		cpu, disk := 0.0, 0.0
		if i > 0 {
			cpu, disk = load(levels[i-1])
		}
		pi, err := victimJCT(piVictim(), cpu, disk, pool)
		if err != nil {
			return victimPair{}, err
		}
		srt, err := victimJCT(sortVictim(), cpu, disk, pool)
		if err != nil {
			return victimPair{}, err
		}
		return victimPair{pi: pi, srt: srt}, nil
	})
	if err != nil {
		return victimPair{}, nil, err
	}
	return results[0], results[1:], nil
}

// Fig6b reproduces Figure 6(b): JCT slowdown versus total CPU
// utilization of collocated VMs — PiEst degrades, Sort barely moves.
func Fig6b() (*Outcome, error) {
	out := &Outcome{Table: &Table{
		ID:      "fig6b",
		Title:   "Normalized JCT vs collocated CPU utilization (% of one core)",
		Columns: []string{"cpu(%)", "Sort", "PiEst"},
	}}
	pcts := []float64{0, 100, 300, 500, 700, 900}
	pool := newMetricsPool()
	base, points, err := interferenceSweep(pcts, func(pct float64) (float64, float64) {
		return pct / 100, 0
	}, pool)
	if err != nil {
		return nil, err
	}
	var cpuXs, piYs []float64
	sortMax := 0.0
	for i, pct := range pcts {
		sortRatio := points[i].srt / base.srt
		if sortRatio > sortMax {
			sortMax = sortRatio
		}
		out.Table.AddCells(Str(fmt.Sprintf("%.0f", pct)), F3(sortRatio), F3(points[i].pi/base.pi))
		cpuXs = append(cpuXs, pct)
		piYs = append(piYs, points[i].pi/base.pi)
	}
	fit, err := stats.FitLinear(cpuXs, piYs)
	if err != nil {
		return nil, err
	}
	out.Notef("PiEst slowdown grows with collocated CPU (linear fit slope %.4f/%%, R²=%.2f); Sort unaffected (paper: same shape)",
		fit.Slope, fit.R2)
	out.Scalar("pi_fit_r2", fit.R2)
	out.Scalar("pi_slowdown_max", piYs[len(piYs)-1])
	out.Scalar("sort_slowdown_max", sortMax)
	out.Metrics = pool.snapshot()
	return out, nil
}

// Fig6c reproduces Figure 6(c): JCT slowdown versus total I/O rate of
// collocated VMs — Sort blows up super-linearly, PiEst stays flat.
func Fig6c() (*Outcome, error) {
	out := &Outcome{Table: &Table{
		ID:      "fig6c",
		Title:   "Normalized JCT vs collocated I/O rate (MB/s)",
		Columns: []string{"io(MB/s)", "Sort", "PiEst"},
	}}
	rates := []float64{0, 10, 20, 30, 40, 50, 60}
	pool := newMetricsPool()
	base, points, err := interferenceSweep(rates, func(rate float64) (float64, float64) {
		return 0, rate
	}, pool)
	if err != nil {
		return nil, err
	}
	var xs, sortYs []float64
	piMax := 0.0
	for i, rate := range rates {
		piRatio := points[i].pi / base.pi
		if piRatio > piMax {
			piMax = piRatio
		}
		out.Table.AddCells(Str(fmt.Sprintf("%.0f", rate)), F3(points[i].srt/base.srt), F3(piRatio))
		xs = append(xs, rate)
		sortYs = append(sortYs, points[i].srt/base.srt)
	}
	fit, err := stats.FitExponential(xs, sortYs)
	if err != nil {
		return nil, err
	}
	out.Notef("Sort slowdown fits %.2f*exp(%.3f*x) with R²=%.2f — super-linear under I/O contention; PiEst flat (paper: exponential increase)",
		fit.A, fit.B, fit.R2)
	out.Scalar("sort_fit_r2", fit.R2)
	out.Scalar("sort_slowdown_max", sortYs[len(sortYs)-1])
	out.Scalar("pi_slowdown_max", piMax)
	out.Metrics = pool.snapshot()
	return out, nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
