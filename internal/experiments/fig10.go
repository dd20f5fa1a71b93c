package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// Fig10a reproduces Figure 10(a): CPU, memory and I/O utilization over
// time, baseline versus HybridMR. The baseline is the traditional
// isolated deployment — interactive applications on dedicated,
// over-provisioned machines and batch work on the rest — while HybridMR
// consolidates batch VMs onto every host and harvests the spare capacity.
func Fig10a() (*Outcome, error) {
	var fired atomic.Uint64
	run := func(hybrid bool) (*metrics.Recorder, error) {
		batchPMs := 12
		if !hybrid {
			batchPMs = 8 // four hosts are reserved for the services
		}
		rig, err := testbed.New(testbed.Options{
			PMs: batchPMs, VMsPerPM: 2, Seed: 1001,
			MapredConfig: mapred.Config{
				SlotCaps:      mapred.DefaultSlotCaps(),
				CapacityAware: hybrid,
			},
			Obs: obs.Sinks{Events: &fired},
		})
		if err != nil {
			return nil, err
		}
		if !hybrid {
			rig.PMs = append(rig.PMs, rig.Cluster.AddPMs("svc", 4)...)
		}
		var drm *core.DRM
		var ips *core.IPS
		svcSpecs := workload.Services()
		for i := 0; i < 4; i++ {
			spec := svcSpecs[i%len(svcSpecs)]
			pmIndex := i
			if !hybrid {
				pmIndex = batchPMs + i // the dedicated service hosts
			}
			svcVM, err := addServiceVM(rig, pmIndex, fmt.Sprintf("%s%d", spec.Name, i))
			if err != nil {
				return nil, err
			}
			svc, err := workload.Deploy(spec, svcVM)
			if err != nil {
				return nil, err
			}
			svc.SetClients(900)
			if hybrid {
				if ips == nil {
					ips = core.NewIPS(rig.Engine, rig.Cluster, rig.JT)
					ips.Start(5 * time.Second)
				}
				ips.Watch(svc)
			}
		}
		// A continuous batch stream keeps the cluster busy for the whole
		// 80-minute window, as in the paper's mixed-workload run.
		for i, b := range []mapred.JobSpec{workload.Sort(), workload.Kmeans(), workload.Wcount(), workload.Twitter()} {
			spec := b.WithInputMB(scaledMB(4 * workload.GB))
			var resubmit func(*mapred.Job)
			resubmit = func(*mapred.Job) {
				if rig.Engine.Now() < 75*time.Minute {
					_, _ = rig.JT.Submit(spec, resubmit)
				}
			}
			i := i
			rig.Engine.After(time.Duration(i)*2*time.Minute, func() {
				_, _ = rig.JT.Submit(spec, resubmit)
			})
		}
		if hybrid {
			rig.Engine.After(time.Second, func() {
				drm = core.NewDRM(rig.Engine, rig.JT, core.AllModes(), 5*time.Second)
				drm.Start()
			})
		}
		rec := metrics.NewRecorder(rig.Cluster, time.Minute, 80*time.Minute, nil)
		rig.Engine.RunUntil(80 * time.Minute)
		rec.Stop()
		if ips != nil {
			ips.Stop()
		}
		if drm != nil {
			drm.Stop()
		}
		return rec, nil
	}
	both, err := Map(2, func(i int) (*metrics.Recorder, error) {
		return run(i == 1)
	})
	if err != nil {
		return nil, err
	}
	base, hyb := both[0], both[1]
	out := &Outcome{Table: &Table{
		ID:      "fig10a",
		Title:   "Mean utilization over 80 minutes: baseline vs HybridMR",
		Columns: []string{"minute", "cpu-base", "cpu-hyb", "mem-base", "mem-hyb", "io-base", "io-hyb"},
	}}
	_, cpuB := base.Series(resource.CPU)
	_, cpuH := hyb.Series(resource.CPU)
	_, memB := base.Series(resource.Memory)
	_, memH := hyb.Series(resource.Memory)
	_, ioB := base.Series(resource.DiskIO)
	_, ioH := hyb.Series(resource.DiskIO)
	for m := 4; m < len(cpuB) && m < len(cpuH); m += 5 {
		out.Table.AddCells(Str(fmt.Sprintf("%d", m+1)),
			F3(cpuB[m]), F3(cpuH[m]), F3(memB[m]), F3(memH[m]), F3(ioB[m]), F3(ioH[m]))
	}
	out.Notef("mean CPU util %.2f -> %.2f, memory %.2f -> %.2f, I/O %.2f -> %.2f under HybridMR (paper: HybridMR boosts all three)",
		base.MeanUtil(resource.CPU), hyb.MeanUtil(resource.CPU),
		base.MeanUtil(resource.Memory), hyb.MeanUtil(resource.Memory),
		base.MeanUtil(resource.DiskIO), hyb.MeanUtil(resource.DiskIO))
	out.Scalar("cpu_base_mean", base.MeanUtil(resource.CPU))
	out.Scalar("cpu_hyb_mean", hyb.MeanUtil(resource.CPU))
	out.Scalar("mem_base_mean", base.MeanUtil(resource.Memory))
	out.Scalar("mem_hyb_mean", hyb.MeanUtil(resource.Memory))
	out.Scalar("io_base_mean", base.MeanUtil(resource.DiskIO))
	out.Scalar("io_hyb_mean", hyb.MeanUtil(resource.DiskIO))
	out.EventsFired = fired.Load()
	return out, nil
}

// migrationSweep migrates each of 24 VMs once and returns per-node stats.
func migrationSweep(memMB float64, runWcount bool, sink *atomic.Uint64) ([]cluster.MigrationStats, error) {
	rig, err := testbed.New(testbed.Options{
		PMs: 24, VMsPerPM: 1, VMMemoryMB: memMB, Seed: 1009, Obs: obs.Sinks{Events: sink},
	})
	if err != nil {
		return nil, err
	}
	// Spare destinations.
	spares := rig.Cluster.AddPMs("spare", 24)
	if runWcount {
		// Keep Wcount running for the whole migration sweep by
		// resubmitting it as it completes.
		spec := workload.Wcount().WithInputMB(scaledMB(10 * workload.GB))
		var resubmit func(*mapred.Job)
		resubmit = func(*mapred.Job) {
			// Keep the cluster loaded until the last migration starts.
			if rig.Engine.Now() < time.Duration(30+4*24)*time.Second {
				_, _ = rig.JT.Submit(spec, resubmit)
			}
		}
		if _, err := rig.JT.Submit(spec, resubmit); err != nil {
			return nil, err
		}
	}
	stats := make([]cluster.MigrationStats, 24)
	gotAll := 0
	for i, vm := range rig.VMs {
		i, vm := i, vm
		rig.Engine.After(time.Duration(30+4*i)*time.Second, func() {
			_ = rig.Cluster.Migrate(vm, spares[i], func(s cluster.MigrationStats) {
				stats[i] = s
				gotAll++
			})
		})
	}
	rig.Engine.RunUntil(4 * time.Hour)
	if gotAll != 24 {
		return nil, fmt.Errorf("experiments: only %d/24 migrations completed", gotAll)
	}
	return stats, nil
}

type migrationConfig struct {
	name   string
	memMB  float64
	wcount bool
}

var migrationConfigs = []migrationConfig{
	{"Idle-0.5GB", 512, false},
	{"Idle-1GB", 1024, false},
	{"Wcount-0.5GB", 512, true},
	{"Wcount-1GB", 1024, true},
}

func runMigrationConfigs(sink *atomic.Uint64) (map[string][]cluster.MigrationStats, error) {
	results, err := Map(len(migrationConfigs), func(i int) ([]cluster.MigrationStats, error) {
		cfg := migrationConfigs[i]
		s, err := migrationSweep(cfg.memMB, cfg.wcount, sink)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.name, err)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]cluster.MigrationStats, len(migrationConfigs))
	for i, cfg := range migrationConfigs {
		out[cfg.name] = results[i]
	}
	return out, nil
}

// Fig10b reproduces Figure 10(b): per-VM live-migration time for idle
// and Wcount-loaded VMs at 0.5 and 1 GB.
func Fig10b() (*Outcome, error) {
	var fired atomic.Uint64
	all, err := runMigrationConfigs(&fired)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Table: &Table{
		ID:      "fig10b",
		Title:   "VM migration time (s) per node",
		Columns: []string{"node", "Idle-0.5GB", "Idle-1GB", "Wcount-0.5GB", "Wcount-1GB"},
	}}
	for i := 0; i < 24; i++ {
		row := []Cell{Str(fmt.Sprintf("%d", i))}
		for _, cfg := range migrationConfigs {
			row = append(row, F1(all[cfg.name][i].TotalTime.Seconds()))
		}
		out.Table.AddCells(row...)
	}
	mean := func(name string) float64 {
		var s float64
		for _, m := range all[name] {
			s += m.TotalTime.Seconds()
		}
		return s / 24
	}
	out.Notef("mean migration time: idle-1GB %.1fs vs Wcount-1GB %.1fs (paper: more memory and active Hadoop lengthen migration)",
		mean("Idle-1GB"), mean("Wcount-1GB"))
	out.Scalar("mean_idle_05", mean("Idle-0.5GB"))
	out.Scalar("mean_idle_1", mean("Idle-1GB"))
	out.Scalar("mean_wcount_05", mean("Wcount-0.5GB"))
	out.Scalar("mean_wcount_1", mean("Wcount-1GB"))
	out.EventsFired = fired.Load()
	return out, nil
}

// Fig10c reproduces Figure 10(c): per-VM migration downtime; loaded VMs
// show wide variation.
func Fig10c() (*Outcome, error) {
	var fired atomic.Uint64
	all, err := runMigrationConfigs(&fired)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Table: &Table{
		ID:      "fig10c",
		Title:   "VM migration downtime (ms) per node",
		Columns: []string{"node", "Idle-1GB", "Wcount-0.5GB", "Wcount-1GB"},
	}}
	names := []string{"Idle-1GB", "Wcount-0.5GB", "Wcount-1GB"}
	for i := 0; i < 24; i++ {
		row := []Cell{Str(fmt.Sprintf("%d", i))}
		for _, name := range names {
			row = append(row, F0(float64(all[name][i].Downtime.Milliseconds())))
		}
		out.Table.AddCells(row...)
	}
	spread := func(name string) (lo, hi float64) {
		lo, hi = 1e18, 0
		for _, m := range all[name] {
			ms := float64(m.Downtime.Milliseconds())
			if ms < lo {
				lo = ms
			}
			if ms > hi {
				hi = ms
			}
		}
		return lo, hi
	}
	iLo, iHi := spread("Idle-1GB")
	wLo, wHi := spread("Wcount-1GB")
	out.Notef("downtime spread: idle-1GB %.0f-%.0f ms, Wcount-1GB %.0f-%.0f ms (paper: loaded VMs vary widely)",
		iLo, iHi, wLo, wHi)
	out.Scalar("idle_spread_ms", iHi-iLo)
	out.Scalar("wcount_spread_ms", wHi-wLo)
	out.EventsFired = fired.Load()
	return out, nil
}
