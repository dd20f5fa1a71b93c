package experiments

import (
	"fmt"
	"sync/atomic"

	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// Fig2a reproduces Figure 2(a): Sort JCT with 16 VMs consolidated on 2
// PMs (Same-Host) versus spread across 8 PMs (Cross-Host), for 1-5 GB of
// input. Cross-host shuffle rides the network and loses.
func Fig2a() (*Outcome, error) {
	out := &Outcome{Table: &Table{
		ID:      "fig2a",
		Title:   "Sort JCT (s): Same-Host (16 VMs on 2 PMs) vs Cross-Host (16 VMs on 8 PMs)",
		Columns: []string{"data(GB)", "Same-Host", "Cross-Host"},
	}}
	var fired atomic.Uint64
	pool := newMetricsPool()
	// The paper squeezes 16 one-vCPU VMs onto 2 dual-core PMs for the
	// Same-Host case; VMs are shrunk to 480 MB with single task slots so
	// that eight guests fit in 4 GB of host memory.
	run := func(pms int, mb float64) (float64, error) {
		reg := pool.registry()
		rig, err := testbed.New(testbed.Options{
			PMs:          pms,
			VMsPerPM:     16 / pms,
			VMMemoryMB:   480,
			Seed:         211,
			MapredConfig: mapred.Config{MapSlots: 1, ReduceSlots: 1},
			Obs:          obs.Sinks{Events: &fired, Metrics: reg},
		})
		if err != nil {
			return 0, err
		}
		res, err := rig.RunJob(workload.Sort().WithInputMB(scaledMB(mb)))
		if err != nil {
			return 0, err
		}
		pool.fold(reg)
		return res.JCT.Seconds(), nil
	}
	sizes := []float64{1, 2, 3, 4, 5}
	type pair struct{ same, cross float64 }
	results, err := Map(len(sizes), func(i int) (pair, error) {
		same, err := run(2, sizes[i]*workload.GB)
		if err != nil {
			return pair{}, err
		}
		cross, err := run(8, sizes[i]*workload.GB)
		if err != nil {
			return pair{}, err
		}
		return pair{same: same, cross: cross}, nil
	})
	if err != nil {
		return nil, err
	}
	worseCount := 0
	firstSame, lastSame := 0.0, 0.0
	for i, gb := range sizes {
		same, cross := results[i].same, results[i].cross
		if cross > same {
			worseCount++
		}
		if i == 0 {
			firstSame = same
		}
		lastSame = same
		out.Table.AddCells(Str(fmt.Sprintf("%.0f", gb)), F1(same), F1(cross))
	}
	out.Notef("JCTs grow with input size in both layouts (Same-Host %.0fs -> %.0fs), matching the paper's trend", firstSame, lastSame)
	out.Notef("KNOWN DIVERGENCE: the paper measures Cross-Host as slower (network-delay bound); our disk model charges all spill I/O to the consolidated hosts' two spindles, which dominates instead (%d/5 sizes have Cross-Host slower). The paper's 1-5 GB inputs largely fit the page cache, which this simulator does not model.", worseCount)
	out.Scalar("cross_host_slower_sizes", float64(worseCount))
	out.Scalar("same_host_first", firstSame)
	out.Scalar("same_host_last", lastSame)
	out.EventsFired = fired.Load()
	out.Metrics = pool.snapshot()
	return out, nil
}

// Fig2b reproduces Figure 2(b): CPU-bound Kmeans speeds up with more VMs
// per PM and more task slots (V1-1M-1R, V2-2M-4R, V4-4M-6R), normalized
// to V1, with larger gains at larger inputs.
func Fig2b() (*Outcome, error) {
	out := &Outcome{Table: &Table{
		ID:      "fig2b",
		Title:   "Kmeans normalized JCT: more VMs and slots exploit idle cores",
		Columns: []string{"config", "Kmeans-1GB", "Kmeans-4GB", "Kmeans-8GB"},
	}}
	type cfg struct {
		name     string
		vmsPerPM int
		mapSlots int
		redSlots int
	}
	cfgs := []cfg{
		{"V1-1M-1R", 1, 1, 1},
		{"V2-2M-4R", 2, 2, 4},
		{"V4-4M-6R", 4, 4, 6},
	}
	sizes := []float64{1, 4, 8}
	var fired atomic.Uint64
	pool := newMetricsPool()
	flat, err := Map(len(cfgs)*len(sizes), func(i int) (float64, error) {
		c := cfgs[i/len(sizes)]
		gb := sizes[i%len(sizes)]
		reg := pool.registry()
		rig, err := testbed.New(testbed.Options{
			PMs:          12,
			VMsPerPM:     c.vmsPerPM,
			Seed:         223,
			MapredConfig: mapred.Config{MapSlots: c.mapSlots, ReduceSlots: c.redSlots},
			Obs:          obs.Sinks{Events: &fired, Metrics: reg},
		})
		if err != nil {
			return 0, err
		}
		res, err := rig.RunJob(workload.Kmeans().WithInputMB(scaledMB(gb * workload.GB)))
		if err != nil {
			return 0, err
		}
		pool.fold(reg)
		return res.JCT.Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	jcts := make(map[string][]float64)
	for ci, c := range cfgs {
		jcts[c.name] = flat[ci*len(sizes) : (ci+1)*len(sizes)]
	}
	for _, c := range cfgs {
		row := []Cell{Str(c.name)}
		for i := range sizes {
			row = append(row, F3(jcts[c.name][i]/jcts["V1-1M-1R"][i]))
		}
		out.Table.AddCells(row...)
	}
	gain1 := 1 - jcts["V4-4M-6R"][0]/jcts["V1-1M-1R"][0]
	gain8 := 1 - jcts["V4-4M-6R"][2]/jcts["V1-1M-1R"][2]
	out.Notef("V4 beats V1 by %.0f%% at 1 GB and %.0f%% at 8 GB (paper: CPU-bound jobs gain from more VMs, more at larger inputs)", gain1*100, gain8*100)
	out.Scalar("gain_1gb", gain1)
	out.Scalar("gain_8gb", gain8)
	out.EventsFired = fired.Load()
	out.Metrics = pool.snapshot()
	return out, nil
}

// Fig2c reproduces Figure 2(c): Dom-0 execution is near native for every
// benchmark.
func Fig2c() (*Outcome, error) {
	out := &Outcome{Table: &Table{
		ID:      "fig2c",
		Title:   "Normalized JCT: Native vs Dom-0 (48 nodes)",
		Columns: []string{"benchmark", "Native", "Dom-0"},
	}}
	specs := workload.Benchmarks()
	var fired atomic.Uint64
	pool := newMetricsPool()
	ratios, err := Map(len(specs), func(i int) (float64, error) {
		spec := specs[i]
		nat, err := runIsolated(spec, 0, 229, &fired, pool)
		if err != nil {
			return 0, err
		}
		rig, err := testbed.New(testbed.Options{PMs: testbedPMs, Dom0: true, Seed: 229, Obs: obs.Sinks{Events: &fired}})
		if err != nil {
			return 0, err
		}
		dom0, err := rig.RunJob(scaledSpec(spec))
		if err != nil {
			return 0, err
		}
		return dom0.JCT.Seconds() / nat.JCT.Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	var sum float64
	for i, spec := range specs {
		sum += ratios[i] - 1
		out.Table.AddCells(Str(spec.Name), F3(1), F3(ratios[i]))
	}
	out.Notef("average Dom-0 overhead %.1f%% (paper: under 5%% on average)", sum/float64(len(specs))*100)
	out.Scalar("dom0_overhead_avg", sum/float64(len(specs)))
	out.EventsFired = fired.Load()
	out.Metrics = pool.snapshot()
	return out, nil
}

// Fig2d reproduces Figure 2(d): the split architecture (separate
// TaskTracker and DataNode VMs, Figure 3) beats the combined deployment.
func Fig2d() (*Outcome, error) {
	out := &Outcome{Table: &Table{
		ID:      "fig2d",
		Title:   "Normalized JCT: Combined vs Split Hadoop architecture (24 PMs, 48 VMs)",
		Columns: []string{"benchmark", "Combined", "Split"},
	}}
	specs := workload.Benchmarks()
	var fired atomic.Uint64
	pool := newMetricsPool()
	ratios, err := Map(len(specs), func(i int) (float64, error) {
		spec := specs[i]
		combined, err := runOnRig(testbed.Options{PMs: 24, VMsPerPM: 2, Seed: 233, Obs: obs.Sinks{Events: &fired}}, spec, pool)
		if err != nil {
			return 0, err
		}
		split, err := runOnRig(testbed.Options{PMs: 24, VMsPerPM: 2, Split: true, Seed: 233, Obs: obs.Sinks{Events: &fired}}, spec, pool)
		if err != nil {
			return 0, err
		}
		return split / combined, nil
	})
	if err != nil {
		return nil, err
	}
	var sum float64
	for i, spec := range specs {
		sum += 1 - ratios[i]
		out.Table.AddCells(Str(spec.Name), F3(1), F3(ratios[i]))
	}
	out.Notef("split architecture improves JCT by %.1f%% on average (paper: 12.8%%)", sum/float64(len(specs))*100)
	out.Scalar("split_gain_avg", sum/float64(len(specs)))
	out.EventsFired = fired.Load()
	out.Metrics = pool.snapshot()
	return out, nil
}

func runOnRig(opts testbed.Options, spec mapred.JobSpec, pool *metricsPool) (float64, error) {
	reg := pool.registry()
	opts.Obs.Metrics = reg
	rig, err := testbed.New(opts)
	if err != nil {
		return 0, err
	}
	res, err := rig.RunJob(scaledSpec(spec))
	if err != nil {
		return 0, err
	}
	pool.fold(reg)
	return res.JCT.Seconds(), nil
}
