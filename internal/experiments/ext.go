package experiments

import (
	"fmt"
	"time"

	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/policy"
	"repro/internal/resource"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// Extensions lists the beyond-the-paper experiments: the future-work
// directions Section VI names (iterative and in-memory MapReduce), a
// job-arrival-stream throughput study, and ablations of HybridMR's
// design choices from DESIGN.md.
func Extensions() []Experiment {
	return []Experiment{
		{"ext-iterative", "Future work: Twister-style iterative and Spark-style in-memory MapReduce", ExtIterative},
		{"ext-stream", "Poisson job-arrival stream: vanilla Hadoop vs HybridMR on a hybrid fleet", ExtStream},
		{"ext-faults", "Fault tolerance: Sort JCT vs machine-crash rate, native vs virtualized", ExtFaults},
		{"abl-speculation", "Ablation: speculative execution on a straggling node", AblSpeculation},
		{"abl-capacity", "Ablation: capacity-aware in-cluster placement", AblCapacity},
		{"abl-deferral", "Ablation: DRM memory deferral vs proportional paging", AblDeferral},
	}
}

// ExtIterative compares classic (disk-spilling, per-iteration HDFS
// round-trips) against in-memory iterative execution of a Kmeans-style
// job, on a big-memory native cluster and on the paper's 1 GB guests.
// The Spark claim — big gains when the working set fits in RAM, eroded
// gains when it does not — falls out of the memory model.
func ExtIterative() (*Outcome, error) {
	out := &Outcome{Table: &Table{
		ID:      "ext-iterative",
		Title:   "Iterative PageRank, 4 rounds: classic vs in-memory (JCT seconds)",
		Columns: []string{"platform", "classic", "in-memory", "speedup"},
	}}
	// A PageRank-shaped iterative job: each round shuffles its whole
	// input, the workload class Twister and Spark were built for.
	pageRank := func(inputMB float64) mapred.JobSpec {
		return mapred.JobSpec{
			Name:             "PageRank",
			InputMB:          inputMB,
			Reduces:          16,
			MapStreamMBps:    48,
			MapCPUPerMB:      0.008,
			MapMemMB:         220,
			ShuffleRatio:     1,
			ReduceStreamMBps: 40,
			ReduceCPUPerMB:   0.008,
			ReduceMemMB:      260,
			OutputRatio:      1,
		}
	}
	pool := newMetricsPool()
	run := func(virtual, inMemory bool) (float64, error) {
		opts := testbed.Options{PMs: 8, Seed: 1201, Obs: pool.sinks()}
		if virtual {
			opts.VMsPerPM = 2
		}
		rig, err := testbed.New(opts)
		if err != nil {
			return 0, err
		}
		base := pageRank(scaledMB(2 * workload.GB))
		base.InMemory = inMemory
		ij, err := rig.JT.SubmitIterative(mapred.IterativeSpec{
			Base:       base,
			Iterations: 4,
		}, nil)
		if err != nil {
			return 0, err
		}
		rig.Engine.Run()
		if !ij.Done() || ij.Err() != nil {
			return 0, fmt.Errorf("iterative chain incomplete: %v", ij.Err())
		}
		return ij.JCT().Seconds(), nil
	}
	platforms := []struct {
		name    string
		virtual bool
	}{
		{"native (4 GB nodes)", false},
		{"virtual (1 GB guests)", true},
	}
	// Four independent runs: (platform, classic|in-memory).
	jcts, err := Map(len(platforms)*2, func(i int) (float64, error) {
		return run(platforms[i/2].virtual, i%2 == 1)
	})
	if err != nil {
		return nil, err
	}
	var speedups []float64
	for pi, platform := range platforms {
		classic, inMem := jcts[pi*2], jcts[pi*2+1]
		speedup := classic / inMem
		speedups = append(speedups, speedup)
		out.Table.AddCells(Str(platform.name),
			F1(classic), F1(inMem), Num(fmt.Sprintf("%.2fx", speedup), speedup))
	}
	out.Notef("in-memory iteration gains %.2fx on big-memory nodes but only %.2fx on 1 GB guests, where cached partitions page — the Spark-on-small-VMs trade-off the paper's future work anticipates",
		speedups[0], speedups[1])
	out.Scalar("speedup_native", speedups[0])
	out.Scalar("speedup_virtual", speedups[1])
	out.Metrics = pool.snapshot()
	return out, nil
}

// ExtStream drives a two-hour Poisson stream of mixed jobs at a hybrid
// fleet under vanilla Hadoop (random placement, no Phase II) and under
// HybridMR, comparing completions, completion-time statistics and SLA
// compliance of the co-hosted services.
func ExtStream() (*Outcome, error) {
	var services []scenario.Service
	for _, spec := range workload.Services() {
		services = append(services, scenario.Service{Spec: spec, Clients: 2200})
	}
	suite, err := workload.GenerateSuite(workload.SuiteSpec{
		Mix:              workload.DefaultMix(scaledMB(2 * workload.GB)),
		MeanInterarrival: 3 * time.Minute,
		Horizon:          2 * time.Hour,
		Seed:             1213,
	})
	if err != nil {
		return nil, err
	}
	arrivals := make([]scenario.Arrival, len(suite))
	for i, a := range suite {
		arrivals[i] = scenario.Arrival{At: a.At, Spec: a.Spec}
	}
	pool := newMetricsPool()
	both, err := Map(2, func(i int) (scenario.Outcome, error) {
		hybrid := i == 1
		return scenario.Run(scenario.Spec{
			Rig: testbed.Options{
				PMs:       8,
				NativePMs: 8,
				VMsPerPM:  2,
				Seed:      1207,
				MapredConfig: mapred.Config{
					SlotCaps:      true,
					CapacityAware: hybrid,
				},
				Obs: pool.sinks(),
			},
			System:   mixSystem(hybrid, 1207),
			Services: services,
			Arrivals: arrivals,
			Horizon:  2*time.Hour + 30*time.Minute, // drain the tail
		})
	})
	if err != nil {
		return nil, err
	}
	vanilla, hybrid := both[0], both[1]
	vMean, hMean := stats.Mean(vanilla.JCTs), stats.Mean(hybrid.JCTs)
	vOK, hOK := 1-vanilla.SLAViolationRate(), 1-hybrid.SLAViolationRate()
	out := &Outcome{Table: &Table{
		ID:      "ext-stream",
		Title:   "Two-hour Poisson job stream on an 8 PM + 16 VM hybrid fleet",
		Columns: []string{"metric", "vanilla", "hybridmr"},
	}}
	out.Table.AddCells(Str("jobs completed"), Int(len(vanilla.JCTs)), Int(len(hybrid.JCTs)))
	out.Table.AddCells(Str("mean JCT (s)"), F0(vMean), F0(hMean))
	out.Table.AddCells(Str("p95 JCT (s)"), F0(stats.Percentile(vanilla.JCTs, 95)), F0(stats.Percentile(hybrid.JCTs, 95)))
	out.Table.AddCells(Str("SLA compliance"), F3(vOK), F3(hOK))
	out.Notef("HybridMR changes mean JCT by %.0f%% and SLA compliance from %.2f to %.2f under an open arrival process",
		(vMean-hMean)/vMean*100, vOK, hOK)
	out.Scalar("compliance_vanilla", vOK)
	out.Scalar("compliance_hybrid", hOK)
	out.Scalar("jct_delta", (vMean-hMean)/vMean)
	out.Scalar("completed_vanilla", float64(len(vanilla.JCTs)))
	out.Scalar("completed_hybrid", float64(len(hybrid.JCTs)))
	out.Metrics = pool.snapshot()
	return out, nil
}

// AblSpeculation quantifies speculative execution: a Sort on a cluster
// with one antagonist-loaded straggler node, with and without backups.
func AblSpeculation() (*Outcome, error) {
	pool := newMetricsPool()
	var paths critPaths
	run := func(disable bool) (float64, error) {
		rig, err := testbed.New(testbed.Options{
			PMs: 8, Seed: 1217,
			MapredConfig: mapred.Config{DisableSpeculation: disable},
			Obs:          pool.sinks(),
		})
		if err != nil {
			return 0, err
		}
		antagonist := &cluster.Consumer{
			Name:   "antagonist",
			Demand: resource.NewVector(2, 0, 85, 0),
			Work:   cluster.OpenEnded,
			Weight: 20,
		}
		if err := rig.PMs[7].Start(antagonist); err != nil {
			return 0, err
		}
		res, err := rig.RunJob(workload.Sort().WithInputMB(scaledMB(4 * workload.GB)))
		if err != nil {
			return 0, err
		}
		label := "speculation-on"
		if disable {
			label = "speculation-off"
		}
		paths.add(label, res.CritPath)
		return res.JCT.Seconds(), nil
	}
	both, err := Map(2, func(i int) (float64, error) {
		return run(i == 1)
	})
	if err != nil {
		return nil, err
	}
	withSpec, without := both[0], both[1]
	out := &Outcome{Table: &Table{
		ID:      "abl-speculation",
		Title:   "Sort JCT (s) with one straggling node",
		Columns: []string{"speculation", "JCT"},
	}}
	out.Table.AddCells(Str("on"), F1(withSpec))
	out.Table.AddCells(Str("off"), F1(without))
	out.Notef("speculative execution cuts the straggler-bound JCT by %.0f%%", (without-withSpec)/without*100)
	out.Scalar("speculation_gain", (without-withSpec)/without)
	if sp, ok := paths.m["speculation-on"]; ok {
		out.Notef("critical path with speculation: %d retried unit(s), %d speculative win(s)", sp.Retried, sp.SpeculativeWins)
	}
	out.Metrics = pool.snapshot()
	out.CritPaths = paths.m
	return out, nil
}

// AblCapacity quantifies capacity-aware in-cluster placement: batch work
// plus loaded services, with trackers visited least-loaded-first versus
// fixed heartbeat order.
func AblCapacity() (*Outcome, error) {
	pool := newMetricsPool()
	run := func(aware bool) (jct float64, latency float64, err error) {
		rig, err := testbed.New(testbed.Options{
			PMs: 8, VMsPerPM: 2, Seed: 1223,
			MapredConfig: mapred.Config{
				SlotCaps:      true,
				CapacityAware: aware,
			},
			Obs: pool.sinks(),
		})
		if err != nil {
			return 0, 0, err
		}
		var services []*workload.Service
		for i := 0; i < 3; i++ {
			svcVM, err := testbed.ServiceVM(rig.Cluster, rig.PMs, i, fmt.Sprintf("s%d", i))
			if err != nil {
				return 0, 0, err
			}
			svc, err := workload.Deploy(workload.Services()[i], svcVM)
			if err != nil {
				return 0, 0, err
			}
			svc.SetClients(2000)
			services = append(services, svc)
		}
		job, err := rig.JT.Submit(workload.Sort().WithInputMB(scaledMB(4*workload.GB)), nil)
		if err != nil {
			return 0, 0, err
		}
		var lats []float64
		tick := sim.NewTicker(rig.Engine, 15*time.Second, func(time.Duration) {
			for _, svc := range services {
				// Capped at client-timeout level, as in Figure 8(a).
				lats = append(lats, math.Min(svc.LatencyMs(), 5000))
			}
		})
		for at := time.Minute; at < 4*time.Hour && !job.Done(); at += time.Minute {
			rig.Engine.RunUntil(at)
		}
		tick.Stop()
		if !job.Done() {
			return 0, 0, fmt.Errorf("job stalled")
		}
		return job.JCT().Seconds(), stats.Mean(lats), nil
	}
	type capResult struct{ jct, lat float64 }
	both, err := Map(2, func(i int) (capResult, error) {
		jct, lat, err := run(i == 1)
		return capResult{jct: jct, lat: lat}, err
	})
	if err != nil {
		return nil, err
	}
	blindJCT, blindLat := both[0].jct, both[0].lat
	awareJCT, awareLat := both[1].jct, both[1].lat
	out := &Outcome{Table: &Table{
		ID:      "abl-capacity",
		Title:   "Capacity-aware placement: Sort + 3 loaded services on 16 VMs",
		Columns: []string{"placement", "Sort JCT (s)", "service mean latency (ms)"},
	}}
	out.Table.AddCells(Str("heartbeat order"), F1(blindJCT), F0(blindLat))
	out.Table.AddCells(Str("capacity-aware"), F1(awareJCT), F0(awareLat))
	out.Notef("steering tasks toward lightly-loaded hosts changes Sort JCT by %.0f%% and service mean latency by %.0f%%",
		(blindJCT-awareJCT)/blindJCT*100, (blindLat-awareLat)/blindLat*100)
	out.Scalar("jct_delta", (blindJCT-awareJCT)/blindJCT)
	out.Scalar("lat_delta", (blindLat-awareLat)/blindLat)
	out.Metrics = pool.snapshot()
	return out, nil
}

// AblDeferral compares the DRM memory balancer's two policies on an
// overcommitted mix: deferring the youngest tasks versus shrinking every
// task's residency proportionally.
func AblDeferral() (*Outcome, error) {
	pool := newMetricsPool()
	run := func(set *policy.Set) (float64, error) {
		rig, err := testbed.New(testbed.Options{
			PMs: 8, VMsPerPM: 2, Seed: 1229,
			MapredConfig: mapred.Config{SlotCaps: true},
			Obs:          pool.sinks(),
		})
		if err != nil {
			return 0, err
		}
		var jobs []*mapred.Job
		for _, spec := range []mapred.JobSpec{
			workload.Twitter().WithInputMB(scaledMB(3 * workload.GB)),
			workload.Sort().WithInputMB(scaledMB(3 * workload.GB)),
		} {
			job, err := rig.JT.Submit(spec, nil)
			if err != nil {
				return 0, err
			}
			jobs = append(jobs, job)
		}
		drm := core.NewDRM(rig.JT, core.ResourceModes{Memory: true}, set, &rig.Obs)
		drm.Start()
		defer drm.Stop()
		rig.Engine.Run()
		var sum float64
		for _, j := range jobs {
			if !j.Done() {
				return 0, fmt.Errorf("job %s stalled", j.Spec.Name)
			}
			sum += j.JCT().Seconds()
		}
		return sum / float64(len(jobs)), nil
	}
	sets := []*policy.Set{policy.Default(), mustResolve(policy.Spec{DRM: "static-split"})}
	both, err := Map(len(sets), func(i int) (float64, error) {
		return run(sets[i])
	})
	if err != nil {
		return nil, err
	}
	defer2, proportional := both[0], both[1]
	out := &Outcome{Table: &Table{
		ID:      "abl-deferral",
		Title:   "DRM memory policy on an overcommitted two-job mix (mean JCT, s)",
		Columns: []string{"policy", "mean JCT"},
	}}
	out.Table.AddCells(Str("defer youngest"), F1(defer2))
	out.Table.AddCells(Str("proportional paging"), F1(proportional))
	out.Notef("deferral vs proportional paging: %.1f%% mean-JCT difference", (proportional-defer2)/proportional*100)
	out.Scalar("jct_delta", (proportional-defer2)/proportional)
	out.Metrics = pool.snapshot()
	return out, nil
}
