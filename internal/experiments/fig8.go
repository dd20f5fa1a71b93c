package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// mixResult summarizes one workload-mix run.
type mixResult struct {
	meanJCT     float64
	meanLatency float64
}

// runMix drives nServices interactive applications and nJobs batch jobs
// on a hybrid rig under the given placement policy, returning mean batch
// JCT and mean interactive latency.
func runMix(nServices, nJobs int, usePhase1 bool, seed int64, pool *metricsPool) (mixResult, error) {
	// 8 native PMs plus 16 PMs hosting 32 VMs: the virtual partition
	// keeps real spare capacity, which is the premise the paper's
	// consolidation argument rests on.
	reg := pool.registry()
	rig, err := testbed.New(testbed.Options{
		PMs:       16,
		NativePMs: 8,
		VMsPerPM:  2,
		Seed:      seed,
		MapredConfig: mapred.Config{
			SlotCaps:      mapred.DefaultSlotCaps(),
			CapacityAware: usePhase1,
		},
		Obs: obs.Sinks{Metrics: reg},
	})
	if err != nil {
		return mixResult{}, err
	}
	// The baseline is the paper's FCFS discipline: random placement with
	// no Phase II protection, i.e. plain Hadoop on the hybrid hardware.
	cfg := core.Config{TrainingSeed: seed}
	if !usePhase1 {
		cfg.DisableDRM = true
		cfg.DisableIPS = true
		cfg.Policies = mustResolve(policy.Spec{Phase1: "random-p1"})
	}
	sys, err := core.NewSystem(rig.Engine, rig.Cluster, rig.NativeJT, rig.JT, cfg, nil)
	if err != nil {
		return mixResult{}, err
	}
	defer sys.Stop()

	svcSpecs := workload.Services()
	var services []*workload.Service
	var drivers []*workload.LoadDriver
	for i := 0; i < nServices; i++ {
		svcVM, err := addServiceVM(rig, i, svcSpecs[i%len(svcSpecs)].Name)
		if err != nil {
			return mixResult{}, err
		}
		svc, err := sys.DeployService(svcSpecs[i%len(svcSpecs)], svcVM)
		if err != nil {
			return mixResult{}, err
		}
		services = append(services, svc)
		drivers = append(drivers, workload.NewLoadDriver(rig.Engine, svc, &workload.DiurnalTrace{
			Base: 1500, Amplitude: 500, Seed: seed + int64(i),
		}, 15*time.Second))
	}

	// A representative batch roster: I/O-heavy, CPU-heavy and mixed jobs
	// in every mix, so small mixes are not dominated by one profile.
	roster := []mapred.JobSpec{
		workload.Sort(), workload.Kmeans(), workload.Wcount(),
		workload.DistGrep(), workload.Twitter(), workload.PiEst(),
	}
	var jobs []*mapred.Job
	for i := 0; i < nJobs; i++ {
		spec := roster[i%len(roster)].WithInputMB(scaledMB(3 * workload.GB))
		if spec.FixedMapWork > 0 {
			spec = scaledSpec(roster[i%len(roster)])
		}
		i := i
		rig.Engine.After(time.Duration(i)*time.Minute, func() {
			job, _, err := sys.SubmitJob(spec, 0, nil)
			if err == nil {
				jobs = append(jobs, job)
			}
		})
	}

	var latencies []float64
	latTick := sim.NewTicker(rig.Engine, 15*time.Second, func(time.Duration) {
		for _, svc := range services {
			// Cap samples at a client-timeout level so a single
			// saturated epoch does not dominate the mean.
			latencies = append(latencies, math.Min(svc.LatencyMs(), 5000))
		}
	})

	allDone := func() bool {
		if len(jobs) < nJobs {
			return false
		}
		for _, j := range jobs {
			if !j.Done() {
				return false
			}
		}
		return true
	}
	deadline := 6 * time.Hour
	for at := time.Minute; at <= deadline && !allDone(); at += time.Minute {
		rig.Engine.RunUntil(at)
	}
	latTick.Stop()
	for _, d := range drivers {
		d.Stop()
	}
	if !allDone() {
		return mixResult{}, fmt.Errorf("experiments: mix did not finish within %v", deadline)
	}
	var js metricsJCT
	for _, j := range jobs {
		js.add(j.JCT().Seconds())
	}
	pool.fold(reg)
	return mixResult{meanJCT: js.mean(), meanLatency: stats.Mean(latencies)}, nil
}

type metricsJCT struct{ vals []float64 }

func (m *metricsJCT) add(v float64) { m.vals = append(m.vals, v) }
func (m *metricsJCT) mean() float64 { return stats.Mean(m.vals) }

// Fig8a reproduces Figure 8(a): the performance gain of Phase I
// placement over random (FCFS) placement for the three workload mixes.
func Fig8a() (*Outcome, error) {
	out := &Outcome{Table: &Table{
		ID:      "fig8a",
		Title:   "Phase I performance gain vs random placement",
		Columns: []string{"mix", "Transactional", "Batch"},
	}}
	mixes := []struct {
		name     string
		services int
		jobs     int
	}{
		{"wmix-1 (50/50)", 6, 6},
		{"wmix-2 (20/80)", 2, 10},
		{"wmix-3 (80/20)", 10, 3},
	}
	pool := newMetricsPool()
	// Each (mix, policy) run is independent: even index = random
	// placement, odd = Phase I.
	results, err := Map(len(mixes)*2, func(i int) (mixResult, error) {
		mix := mixes[i/2]
		usePhase1 := i%2 == 1
		res, err := runMix(mix.services, mix.jobs, usePhase1, 801, pool)
		if err != nil {
			policy := "random"
			if usePhase1 {
				policy = "phase1"
			}
			return mixResult{}, fmt.Errorf("fig8a %s %s: %w", mix.name, policy, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	best := 0.0
	for mi, mix := range mixes {
		random, phase1 := results[mi*2], results[mi*2+1]
		transGain := 1 - phase1.meanLatency/random.meanLatency
		batchGain := 1 - phase1.meanJCT/random.meanJCT
		if batchGain > best {
			best = batchGain
		}
		out.Table.AddCells(Str(mix.name), F3(transGain), F3(batchGain))
	}
	out.Notef("profiled placement helps both classes in the batch-heavy mixes; best batch gain %.0f%% (paper: gains up to ~0.4, magnitude varying with mix); wmix-3 has too little batch work for placement to matter much", best*100)
	out.Scalar("best_batch_gain", best)
	out.Metrics = pool.snapshot()
	return out, nil
}

// drmJCT runs jobs on a 48-VM virtual cluster with static slot caps,
// optionally managed by the DRM in the given mode, and returns each
// job's JCT by benchmark name.
func drmJCT(specs []mapred.JobSpec, managed bool, modes core.ResourceModes, seed int64, pool *metricsPool) (map[string]float64, error) {
	reg := pool.registry()
	rig, err := testbed.New(testbed.Options{
		PMs:      24,
		VMsPerPM: 2,
		Seed:     seed,
		MapredConfig: mapred.Config{
			SlotCaps:      mapred.DefaultSlotCaps(),
			CapacityAware: managed,
		},
		Obs: obs.Sinks{Metrics: reg},
	})
	if err != nil {
		return nil, err
	}
	jobs := make([]*mapred.Job, 0, len(specs))
	for _, spec := range specs {
		job, err := rig.JT.Submit(spec, nil)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
	}
	if managed {
		drm := core.NewDRM(rig.Engine, rig.JT, modes, 5*time.Second)
		drm.Start()
		defer drm.Stop()
	}
	rig.Engine.Run()
	out := make(map[string]float64, len(jobs))
	for _, j := range jobs {
		if !j.Done() {
			return nil, fmt.Errorf("experiments: job %s stalled", j.Spec.Name)
		}
		out[j.Spec.Name] = j.JCT().Seconds()
	}
	pool.fold(reg)
	return out, nil
}

var drmModes = []struct {
	name  string
	modes core.ResourceModes
}{
	{"CPU", core.ResourceModes{CPU: true}},
	{"Memory", core.ResourceModes{Memory: true}},
	{"I/O", core.ResourceModes{IO: true}},
	{"CPU+Mem+I/O", core.AllModes()},
}

func fig8bc(id, title string, together bool, paperAvg, paperMax float64) (*Outcome, error) {
	out := &Outcome{Table: &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"benchmark", "CPU", "Memory", "I/O", "CPU+Mem+I/O"},
	}}
	specs := make([]mapred.JobSpec, 0, 6)
	for _, b := range workload.Benchmarks() {
		specs = append(specs, scaledSpec(b))
	}
	// Config 0 is the unmanaged baseline, then the four DRM modes.
	type drmCfg struct {
		managed bool
		modes   core.ResourceModes
	}
	cfgs := []drmCfg{{false, core.ResourceModes{}}}
	for _, m := range drmModes {
		cfgs = append(cfgs, drmCfg{true, m.modes})
	}
	pool := newMetricsPool()
	var byCfg []map[string]float64
	if together {
		res, err := Map(len(cfgs), func(i int) (map[string]float64, error) {
			return drmJCT(specs, cfgs[i].managed, cfgs[i].modes, 811, pool)
		})
		if err != nil {
			return nil, err
		}
		byCfg = res
	} else {
		flat, err := Map(len(cfgs)*len(specs), func(i int) (map[string]float64, error) {
			c := cfgs[i/len(specs)]
			return drmJCT([]mapred.JobSpec{specs[i%len(specs)]}, c.managed, c.modes, 811, pool)
		})
		if err != nil {
			return nil, err
		}
		byCfg = make([]map[string]float64, len(cfgs))
		for ci := range cfgs {
			merged := make(map[string]float64, len(specs))
			for si, spec := range specs {
				merged[spec.Name] = flat[ci*len(specs)+si][spec.Name]
			}
			byCfg[ci] = merged
		}
	}
	base := byCfg[0]
	reductions := make(map[string]map[string]float64) // benchmark -> mode -> reduction
	for _, b := range specs {
		reductions[b.Name] = make(map[string]float64)
	}
	for mi, m := range drmModes {
		managed := byCfg[mi+1]
		for name, b := range base {
			reductions[name][m.name] = (b - managed[name]) / b
		}
	}
	var all []float64
	for _, spec := range specs {
		row := []Cell{Str(spec.Name)}
		for _, m := range drmModes {
			r := reductions[spec.Name][m.name]
			row = append(row, Pct(r))
			if m.name == "CPU+Mem+I/O" {
				all = append(all, r)
			}
		}
		out.Table.AddCells(row...)
	}
	avg := stats.Mean(all)
	max := stats.Percentile(all, 100)
	out.Notef("CPU+Mem+I/O mode: average JCT reduction %.1f%%, max %.1f%% (paper: %.1f%% / %.1f%%)",
		avg*100, max*100, paperAvg, paperMax)
	out.Scalar("allmode_avg_reduction", avg)
	out.Scalar("allmode_max_reduction", max)
	out.Metrics = pool.snapshot()
	return out, nil
}

// Fig8b reproduces Figure 8(b): single-job JCT reduction under Phase II
// resource orchestration, per managed-resource mode.
func Fig8b() (*Outcome, error) {
	return fig8bc("fig8b", "Single-job % reduction in JCT under Phase II DRM (48 VMs)", false, 22.0, 29.1)
}

// Fig8c reproduces Figure 8(c): the same comparison with all six jobs
// running concurrently — more interference, more opportunity.
func Fig8c() (*Outcome, error) {
	return fig8bc("fig8c", "Multi-job % reduction in JCT under Phase II DRM (48 VMs)", true, 28.5, 40.8)
}

// Fig8d reproduces Figure 8(d): RUBiS latency versus client count in
// isolation, collocated with FIFO MapReduce, and under HybridMR's IPS.
func Fig8d() (*Outcome, error) {
	out := &Outcome{Table: &Table{
		ID:      "fig8d",
		Title:   "RUBiS latency (ms) vs clients",
		Columns: []string{"clients", "RUBiS", "RUBiS+MapReduce", "HybridMR"},
	}}
	pool := newMetricsPool()
	run := func(clients int, batch, ips bool) (float64, error) {
		reg := pool.registry()
		rig, err := testbed.New(testbed.Options{
			PMs:      12,
			VMsPerPM: 2,
			Seed:     821,
			MapredConfig: mapred.Config{
				SlotCaps:      mapred.DefaultSlotCaps(),
				CapacityAware: ips,
			},
			Policies: mustResolve(policy.Spec{Phase2: "fifo-p2"}),
			Obs:      obs.Sinks{Metrics: reg},
		})
		if err != nil {
			return 0, err
		}
		svcVM, err := addServiceVM(rig, 0, "rubis")
		if err != nil {
			return 0, err
		}
		svc, err := workload.Deploy(workload.RUBiS(), svcVM)
		if err != nil {
			return 0, err
		}
		svc.SetClients(clients)
		if batch {
			// A continuous batch stream: each finished job is replaced,
			// as in the paper's co-hosted MapReduce queue.
			spec := workload.Sort().WithInputMB(scaledMB(4 * workload.GB))
			var resubmit func(*mapred.Job)
			resubmit = func(*mapred.Job) {
				_, _ = rig.JT.Submit(spec, resubmit)
			}
			for i := 0; i < 2; i++ {
				if _, err := rig.JT.Submit(spec, resubmit); err != nil {
					return 0, err
				}
			}
		}
		if ips {
			ctl := core.NewIPS(rig.Engine, rig.Cluster, rig.JT)
			ctl.Watch(svc)
			ctl.Start(5 * time.Second)
			defer ctl.Stop()
		}
		// Steady-state latency: the paper's continuously running system
		// is measured in equilibrium, so the first three minutes (IPS
		// convergence) are warm-up.
		var lat []float64
		tick := sim.NewTicker(rig.Engine, 10*time.Second, func(now time.Duration) {
			if now >= 3*time.Minute {
				lat = append(lat, svc.LatencyMs())
			}
		})
		rig.Engine.RunUntil(6 * time.Minute)
		tick.Stop()
		pool.fold(reg)
		return stats.Mean(lat), nil
	}
	var levels []int
	for clients := 400; clients <= 6400; clients += 800 {
		levels = append(levels, clients)
	}
	type latTriple struct{ alone, fifo, hybrid float64 }
	results, err := Map(len(levels), func(i int) (latTriple, error) {
		clients := levels[i]
		alone, err := run(clients, false, false)
		if err != nil {
			return latTriple{}, err
		}
		fifo, err := run(clients, true, false)
		if err != nil {
			return latTriple{}, err
		}
		hybrid, err := run(clients, true, true)
		if err != nil {
			return latTriple{}, err
		}
		return latTriple{alone: alone, fifo: fifo, hybrid: hybrid}, nil
	})
	if err != nil {
		return nil, err
	}
	sla := workload.RUBiS().SLAMs
	var fifoViolations, hybridViolations int
	for i, clients := range levels {
		r := results[i]
		if r.fifo > sla {
			fifoViolations++
		}
		if r.hybrid > sla {
			hybridViolations++
		}
		out.Table.AddCells(Str(fmt.Sprintf("%d", clients)),
			F0(r.alone), F0(r.fifo), F0(r.hybrid))
	}
	out.Notef("FIFO collocation violates the 2 s SLA at %d client levels; HybridMR at %d (paper: HybridMR keeps latency within bounds)",
		fifoViolations, hybridViolations)
	out.Scalar("fifo_sla_violations", float64(fifoViolations))
	out.Scalar("hybrid_sla_violations", float64(hybridViolations))
	out.Metrics = pool.snapshot()
	return out, nil
}
