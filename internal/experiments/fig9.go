package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/resource"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// Fig9a reproduces Figure 9(a): a 35-minute timeline of RUBiS and TPC-W
// response times. Batch MapReduce arrives mid-run, pushes both services
// over the 2-second SLA, and HybridMR's IPS migrates the interfering
// tasks until the latencies recover.
func Fig9a() (*Outcome, error) {
	// A single 35-minute timeline is one continuous simulation, so there
	// is nothing to fan out; it still attributes its events to the run.
	pool := newMetricsPool()
	rig, err := testbed.New(testbed.Options{
		PMs:      12,
		VMsPerPM: 2,
		Seed:     901,
		MapredConfig: mapred.Config{
			SlotCaps:      true,
			CapacityAware: true,
		},
		Obs: pool.sinks(),
	})
	if err != nil {
		return nil, err
	}
	rubisVM, err := testbed.ServiceVM(rig.Cluster, rig.PMs, 0, "rubis")
	if err != nil {
		return nil, err
	}
	rubis, err := workload.Deploy(workload.RUBiS(), rubisVM)
	if err != nil {
		return nil, err
	}
	tpcwVM, err := testbed.ServiceVM(rig.Cluster, rig.PMs, 1, "tpcw")
	if err != nil {
		return nil, err
	}
	tpcw, err := workload.Deploy(workload.TPCW(), tpcwVM)
	if err != nil {
		return nil, err
	}
	rubis.SetClients(3200)
	tpcw.SetClients(2400)

	ips := core.NewIPS(rig.Cluster, rig.JT, nil, &rig.Obs)
	ips.Watch(rubis)
	ips.Watch(tpcw)
	ips.Start()
	defer ips.Stop()

	// Batch load lands at minute 10: heavy I/O jobs across the cluster.
	rig.Engine.After(10*time.Minute, func() {
		for i := 0; i < 3; i++ {
			_, _ = rig.JT.Submit(workload.Sort().WithInputMB(scaledMB(6*workload.GB)), nil)
		}
	})

	out := &Outcome{Table: &Table{
		ID:      "fig9a",
		Title:   "Response time (ms) over 35 minutes; SLA = 2000 ms",
		Columns: []string{"minute", "RUBiS", "TPC-W"},
	}}
	var above, recovered int
	sla := workload.RUBiS().SLAMs
	everViolated := false
	for minute := 1; minute <= 35; minute++ {
		rig.Engine.RunUntil(time.Duration(minute) * time.Minute)
		r := rubis.LatencyMs()
		w := tpcw.LatencyMs()
		out.Table.AddCells(Str(fmt.Sprintf("%d", minute)), F0(r), F0(w))
		if r > sla || w > sla {
			above++
			everViolated = true
		} else if everViolated {
			recovered++
		}
	}
	// The pool holds only this rig's registry, so its ips.actions.<kind>
	// counters sum to every mitigation the IPS took.
	out.Metrics = pool.snapshot()
	actions := 0.0
	for name, n := range out.Metrics.Counters {
		if strings.HasPrefix(name, "ips.actions.") {
			actions += n
		}
	}
	out.Notef("%d/35 minutes above SLA, %d minutes recovered after IPS intervention; %.0f mitigation actions (paper: violations around min 12-14, then restored)",
		above, recovered, actions)
	out.Scalar("minutes_above_sla", float64(above))
	out.Scalar("minutes_recovered", float64(recovered))
	out.Scalar("ips_actions", actions)
	return out, nil
}

// crossPlatformResult holds one design point of Figure 9(b)/(c).
type crossPlatformResult struct {
	name        string
	jct         map[string]float64
	meanJCT     float64
	energyWh    float64 // over the common horizon (set by runAllDesigns)
	runEnergyWh float64 // integrated while the design was active
	makespanSec float64
	servers     int
	util        float64 // over the common horizon (set by runAllDesigns)
	runUtil     float64
}

// runCrossPlatform evaluates one of the three cluster design choices on
// the same workload mix (all six benchmarks plus three interactive
// services).
func runCrossPlatform(design string, pool *metricsPool) (*crossPlatformResult, error) {
	var (
		rig       *testbed.Rig
		nativeJT  *mapred.JobTracker
		virtualJT *mapred.JobTracker
		svcNodes  []cluster.Node
		err       error
	)
	sinks := pool.sinks()
	switch design {
	case "Native":
		rig, err = testbed.New(testbed.Options{PMs: 24, Seed: 907, Obs: sinks})
		if err != nil {
			return nil, err
		}
		nativeJT = rig.JT
		for _, pm := range rig.PMs[:3] {
			svcNodes = append(svcNodes, pm)
		}
	case "Virtual":
		rig, err = testbed.New(testbed.Options{
			PMs: 12, VMsPerPM: 2, Seed: 907,
			MapredConfig: mapred.Config{SlotCaps: true},
			Obs:          sinks,
		})
		if err != nil {
			return nil, err
		}
		virtualJT = rig.JT
		for i := 0; i < 3; i++ {
			svcVM, err := testbed.ServiceVM(rig.Cluster, rig.PMs, i, fmt.Sprintf("s%d", i))
			if err != nil {
				return nil, err
			}
			svcNodes = append(svcNodes, svcVM)
		}
	case "HybridMR":
		rig, err = testbed.New(testbed.Options{
			PMs: 6, VMsPerPM: 2, Seed: 907,
			MapredConfig: mapred.Config{
				SlotCaps:      true,
				CapacityAware: true,
			},
			Obs: sinks,
		})
		if err != nil {
			return nil, err
		}
		virtualJT = rig.JT
		// The native partition runs its own HDFS, as on the testbed.
		pms := rig.Cluster.AddPMs("native", 12)
		nativeFS := dfs.New(rig.Engine, 911, nil)
		nativeJT = mapred.NewJobTracker(rig.Engine, nativeFS, mapred.Config{}, mapred.Fair{}, nil, "")
		for _, pm := range pms {
			nativeJT.AddTracker(pm)
		}
		for i := 0; i < 3; i++ {
			svcVM, err := testbed.ServiceVM(rig.Cluster, rig.PMs, i, fmt.Sprintf("s%d", i))
			if err != nil {
				return nil, err
			}
			svcNodes = append(svcNodes, svcVM)
		}
	default:
		return nil, fmt.Errorf("experiments: unknown design %q", design)
	}

	cfg := core.Config{TrainingSeed: 907}
	if design != "HybridMR" {
		cfg.DisableDRM = true
		cfg.DisableIPS = true
	}
	switch design {
	case "Native":
		cfg.Policies = mustResolve(policy.Spec{Phase1: "static-native"})
	case "Virtual":
		cfg.Policies = mustResolve(policy.Spec{Phase1: "static-virtual"})
	}
	sys, err := core.NewSystem(rig.Engine, rig.Cluster, nativeJT, virtualJT, cfg, &rig.Obs)
	if err != nil {
		return nil, err
	}
	defer sys.Stop()

	svcSpecs := workload.Services()
	for i, node := range svcNodes {
		var svc *workload.Service
		if vm, ok := node.(*cluster.VM); ok {
			svc, err = sys.DeployService(svcSpecs[i], vm)
		} else {
			svc, err = workload.Deploy(svcSpecs[i], node)
		}
		if err != nil {
			return nil, err
		}
		svc.SetClients(1600)
	}

	rec := metrics.NewRecorder(rig.Cluster, 30*time.Second, 0, nil)
	var jobs []*mapred.Job
	for i, b := range workload.Benchmarks() {
		spec := scaledSpec(b)
		i := i
		rig.Engine.After(time.Duration(i)*30*time.Second, func() {
			job, _, err := sys.SubmitJob(spec, 0, nil)
			if err == nil {
				jobs = append(jobs, job)
			}
		})
	}
	allDone := func() bool {
		if len(jobs) < 6 {
			return false
		}
		for _, j := range jobs {
			if !j.Done() {
				return false
			}
		}
		return true
	}
	for at := time.Minute; at <= 8*time.Hour && !allDone(); at += time.Minute {
		rig.Engine.RunUntil(at)
	}
	rec.Stop()
	if !allDone() {
		return nil, fmt.Errorf("experiments: %s design did not finish", design)
	}
	res := &crossPlatformResult{
		name:        design,
		jct:         make(map[string]float64),
		runEnergyWh: rec.EnergyWh(),
		makespanSec: rig.Engine.Now().Seconds(),
		servers:     rig.Cluster.PoweredOnPMs(),
		runUtil:     rec.MeanUtil(resource.CPU),
	}
	var sum float64
	for _, j := range jobs {
		res.jct[j.Spec.Name] = j.JCT().Seconds()
		sum += j.JCT().Seconds()
	}
	res.meanJCT = sum / float64(len(jobs))
	return res, nil
}

var fig9Designs = []string{"Native", "Virtual", "HybridMR"}

func runAllDesigns(pool *metricsPool) ([]*crossPlatformResult, error) {
	out, err := Map(len(fig9Designs), func(i int) (*crossPlatformResult, error) {
		r, err := runCrossPlatform(fig9Designs[i], pool)
		if err != nil {
			return nil, fmt.Errorf("fig9 %s: %w", fig9Designs[i], err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	// Account energy and utilization over a common horizon: the data
	// center keeps its servers powered after a design finishes its
	// workload, idling at the power model's floor. Comparing integrals
	// over different makespans would reward fast designs twice.
	horizon := 0.0
	for _, r := range out {
		if r.makespanSec > horizon {
			horizon = r.makespanSec
		}
	}
	for _, r := range out {
		idleSec := horizon - r.makespanSec
		r.energyWh = r.runEnergyWh + cluster.PowerIdleW*float64(r.servers)*idleSec/3600
		if horizon > 0 {
			r.util = r.runUtil * r.makespanSec / horizon
		}
	}
	return out, nil
}

// Fig9b reproduces Figure 9(b): per-benchmark JCT across the Native,
// Virtual and HybridMR design choices, normalized to the worst.
func Fig9b() (*Outcome, error) {
	pool := newMetricsPool()
	results, err := runAllDesigns(pool)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Table: &Table{
		ID:      "fig9b",
		Title:   "Normalized JCT per benchmark across cluster designs",
		Columns: []string{"benchmark", "Native", "Virtual", "HybridMR"},
	}}
	ordered := 0
	for _, b := range workload.BenchmarkNames() {
		max := 0.0
		for _, r := range results {
			if r.jct[b] > max {
				max = r.jct[b]
			}
		}
		row := []Cell{Str(b)}
		for _, r := range results {
			row = append(row, F3(r.jct[b]/max))
		}
		out.Table.AddCells(row...)
		if results[0].jct[b] <= results[2].jct[b] && results[2].jct[b] <= results[1].jct[b] {
			ordered++
		}
	}
	gain := 1 - results[2].meanJCT/results[1].meanJCT
	out.Notef("Native <= HybridMR <= Virtual holds for %d/6 benchmarks; HybridMR improves mean JCT over Virtual by %.0f%% (paper: up to 40%%)",
		ordered, gain*100)
	out.Scalar("ordered_benchmarks", float64(ordered))
	out.Scalar("hybrid_gain_vs_virtual", gain)
	out.Scalar("mean_jct_native", results[0].meanJCT)
	out.Scalar("mean_jct_virtual", results[1].meanJCT)
	out.Scalar("mean_jct_hybrid", results[2].meanJCT)
	out.Metrics = pool.snapshot()
	return out, nil
}

// Fig9c reproduces Figure 9(c): the aggregate design metrics — energy,
// performance per energy, server count and utilization — normalized to
// the maximum across designs.
func Fig9c() (*Outcome, error) {
	pool := newMetricsPool()
	results, err := runAllDesigns(pool)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Table: &Table{
		ID:      "fig9c",
		Title:   "Design metrics normalized to maximum",
		Columns: []string{"metric", "Native", "Virtual", "HybridMR"},
	}}
	perf := make([]float64, len(results))
	energy := make([]float64, len(results))
	servers := make([]float64, len(results))
	util := make([]float64, len(results))
	for i, r := range results {
		perf[i] = metrics.PerfPerEnergy(r.meanJCT, r.energyWh)
		energy[i] = r.energyWh
		servers[i] = float64(r.servers)
		util[i] = r.util
	}
	addRow := func(name string, vals []float64) {
		n := stats.Normalize(vals)
		out.Table.AddCells(Str(name), F3(n[0]), F3(n[1]), F3(n[2]))
	}
	addRow("Perf/Energy", perf)
	addRow("Energy", energy)
	addRow("# of Servers", servers)
	addRow("Utilization", util)
	energySaving := 1 - energy[2]/energy[0]
	utilBoost := util[2]/util[0] - 1
	out.Notef("HybridMR saves %.0f%% energy vs Native (paper: ~43%%) and boosts utilization by %.0f%% (paper: ~45%%)",
		energySaving*100, utilBoost*100)
	if perf[2] < perf[0] || perf[2] < perf[1] {
		out.Notef("NOTE: HybridMR did not achieve the best perf/energy in this run")
	} else {
		out.Notef("HybridMR achieves the best Performance/Energy of the three designs (matches paper)")
	}
	out.Scalar("energy_saving_vs_native", energySaving)
	out.Scalar("util_boost_vs_native", utilBoost)
	out.Scalar("perf_energy_native", perf[0])
	out.Scalar("perf_energy_virtual", perf[1])
	out.Scalar("perf_energy_hybrid", perf[2])
	out.Metrics = pool.snapshot()
	return out, nil
}
