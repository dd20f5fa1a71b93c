package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// fig11Config is one hybrid split of the physical infrastructure.
type fig11Config struct {
	name      string
	nativePMs int
	vms       int // hosted 2 per PM on additional machines
}

// fig11Configs generates the paper's 20 cluster configurations: 18
// seeded-random splits plus the two instructive extremes the paper calls
// out (C7-like balanced hybrid, C17-like all-native).
func fig11Configs() []fig11Config {
	rng := rand.New(rand.NewSource(1111))
	out := make([]fig11Config, 0, 20)
	out = append(out, fig11Config{name: "C1", nativePMs: 12, vms: 12}) // balanced hybrid
	for i := 2; i <= 19; i++ {
		nat := rng.Intn(17) + 2 // 2..18
		maxHosts := 24 - nat
		hosts := 0
		if maxHosts > 0 {
			hosts = rng.Intn(maxHosts) + 1
		}
		out = append(out, fig11Config{
			name:      fmt.Sprintf("C%d", i),
			nativePMs: nat,
			vms:       hosts * 2,
		})
	}
	out = append(out, fig11Config{name: "C20", nativePMs: 24, vms: 0}) // all native
	return out
}

// fig11Run is one configuration's raw measurement.
type fig11Run struct {
	meanJCT       float64
	slaCompliance float64 // fraction of latency samples within the SLA
	runEnergyWh   float64
	makespanSec   float64
	servers       int
}

// runFig11Config measures one split under a fixed small workload mix.
func runFig11Config(cfg fig11Config, pool *metricsPool) (fig11Run, error) {
	vmHosts := cfg.vms / 2
	sinks := pool.sinks()
	var rig *testbed.Rig
	var err error
	var nativeJT, virtualJT *mapred.JobTracker
	if vmHosts > 0 {
		rig, err = testbed.New(testbed.Options{
			PMs: vmHosts, VMsPerPM: 2, Seed: 1117,
			MapredConfig: mapred.Config{
				SlotCaps:      true,
				CapacityAware: true,
			},
			Obs: sinks,
		})
		if err != nil {
			return fig11Run{}, err
		}
		virtualJT = rig.JT
	} else {
		rig, err = testbed.New(testbed.Options{PMs: cfg.nativePMs, Seed: 1117, Obs: sinks})
		if err != nil {
			return fig11Run{}, err
		}
		nativeJT = rig.JT
	}
	if vmHosts > 0 && cfg.nativePMs > 0 {
		// Separate HDFS instance for the native partition, as on the
		// paper's testbed.
		pms := rig.Cluster.AddPMs("native", cfg.nativePMs)
		nativeFS := dfs.New(rig.Engine, 1123, nil)
		nativeJT = mapred.NewJobTracker(rig.Engine, nativeFS, mapred.Config{}, mapred.Fair{}, nil, "")
		for _, pm := range pms {
			nativeJT.AddTracker(pm)
		}
	}
	sys, err := core.NewSystem(rig.Cluster, nativeJT, virtualJT, core.Config{TrainingSeed: 1117}, &rig.Obs)
	if err != nil {
		return fig11Run{}, err
	}
	defer sys.Stop()
	// Every configuration carries the same two interactive tenants; a
	// no-VM split must host them natively on its physical machines.
	var services []*workload.Service
	for i, spec := range workload.Services()[:2] {
		var svc *workload.Service
		if vmHosts > 0 {
			svcVM, err := testbed.ServiceVM(rig.Cluster, rig.PMs, i, spec.Name)
			if err != nil {
				return fig11Run{}, err
			}
			svc, err = sys.DeployService(spec, svcVM)
			if err != nil {
				return fig11Run{}, err
			}
		} else {
			var err error
			svc, err = workload.Deploy(spec, rig.PMs[i%len(rig.PMs)])
			if err != nil {
				return fig11Run{}, err
			}
		}
		svc.SetClients(3600)
		services = append(services, svc)
	}
	// Sample SLA compliance: the paper's "performance" covers all jobs,
	// interactive included, which is what sinks the all-native extreme.
	samples, violations := 0, 0
	slaTick := sim.NewTicker(rig.Engine, 15*time.Second, func(time.Duration) {
		for _, svc := range services {
			samples++
			if svc.SLAViolated() {
				violations++
			}
		}
	})
	defer slaTick.Stop()
	rec := metrics.NewRecorder(rig.Cluster, 30*time.Second, 0, nil)
	specs := []mapred.JobSpec{
		workload.Sort().WithInputMB(scaledMB(3 * workload.GB)),
		workload.Kmeans().WithInputMB(scaledMB(2 * workload.GB)),
		workload.Wcount().WithInputMB(scaledMB(3 * workload.GB)),
	}
	var jobs []*mapred.Job
	for _, spec := range specs {
		job, _, err := sys.SubmitJob(spec, 0, nil)
		if err != nil {
			return fig11Run{}, err
		}
		jobs = append(jobs, job)
	}
	done := func() bool {
		for _, j := range jobs {
			if !j.Done() {
				return false
			}
		}
		return true
	}
	for at := time.Minute; at <= 6*time.Hour && !done(); at += time.Minute {
		rig.Engine.RunUntil(at)
	}
	rec.Stop()
	if !done() {
		return fig11Run{}, fmt.Errorf("config %s stalled", cfg.name)
	}
	var sum float64
	for _, j := range jobs {
		sum += j.JCT().Seconds()
	}
	compliance := 1.0
	if samples > 0 {
		compliance = 1 - float64(violations)/float64(samples)
	}
	if compliance < 0.05 {
		compliance = 0.05
	}
	return fig11Run{
		meanJCT:       sum / float64(len(jobs)),
		slaCompliance: compliance,
		runEnergyWh:   rec.EnergyWh(),
		makespanSec:   rig.Engine.Now().Seconds(),
		servers:       rig.Cluster.PoweredOnPMs(),
	}, nil
}

// Fig11 reproduces Figure 11: the ⟨#PMs, #VMs, performance/energy⟩
// trade-off surface over 20 hybrid configurations.
func Fig11() (*Outcome, error) {
	out := &Outcome{Table: &Table{
		ID:      "fig11",
		Title:   "Hybrid configuration trade-off: performance/energy by split",
		Columns: []string{"config", "PMs", "VMs", "perf/energy"},
	}}
	configs := fig11Configs()
	pool := newMetricsPool()
	runs, err := Map(len(configs), func(i int) (fig11Run, error) {
		r, err := runFig11Config(configs[i], pool)
		if err != nil {
			return fig11Run{}, fmt.Errorf("fig11 %s: %w", configs[i].name, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	horizon := 0.0
	for _, r := range runs {
		if r.makespanSec > horizon {
			horizon = r.makespanSec
		}
	}
	// Energy over a common horizon, as in Figure 9(c): servers stay
	// powered (idling) after their configuration finishes its workload.
	values := make([]float64, len(configs))
	best, worst := 0, 0
	for i, r := range runs {
		energy := r.runEnergyWh + cluster.PowerIdleW*float64(r.servers)*(horizon-r.makespanSec)/3600
		// Performance covers every job class: batch completion time
		// inflated by the interactive tenants' SLA violations.
		values[i] = metrics.PerfPerEnergy(r.meanJCT/r.slaCompliance, energy)
		if values[i] > values[best] {
			best = i
		}
		if values[i] < values[worst] {
			worst = i
		}
	}
	max := values[best]
	for i, cfg := range configs {
		norm := 0.0
		if max > 0 {
			norm = values[i] / max
		}
		out.Table.AddCells(Str(cfg.name), Int(cfg.nativePMs), Int(cfg.vms), F3(norm))
	}
	out.Notef("best split %s (%d PMs, %d VMs); worst %s (%d PMs, %d VMs)",
		configs[best].name, configs[best].nativePMs, configs[best].vms,
		configs[worst].name, configs[worst].nativePMs, configs[worst].vms)
	mixed := 0.0
	if configs[best].nativePMs > 0 && configs[best].vms > 0 {
		mixed = 1
		out.Notef("a mixed configuration maximizes performance/energy, matching the paper's qualitative claim (paper: 12 PM + 12 VM best, 24 PM + 0 VM worst)")
	} else {
		out.Notef("NOTE: an extreme configuration won performance/energy in this run, diverging from the paper's balanced-hybrid claim")
	}
	out.Scalar("best_is_mixed", mixed)
	out.Scalar("best_pms", float64(configs[best].nativePMs))
	out.Scalar("best_vms", float64(configs[best].vms))
	out.Scalar("worst_pms", float64(configs[worst].nativePMs))
	out.Scalar("worst_vms", float64(configs[worst].vms))
	out.Metrics = pool.snapshot()
	return out, nil
}
