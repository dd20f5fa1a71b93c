package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// testbedPMs is the paper's physical fleet: 24 servers. The 1/2/4-VM
// virtual configurations run on the same hardware, so the native/virtual
// comparison isolates virtualization and consolidation overheads rather
// than hardware differences.
const testbedPMs = 24

// runIsolated measures one benchmark's JCT on a fresh rig of 24 PMs,
// virtualized at the given density (0 = native), averaged over three
// seeded runs as in the paper's methodology.
func runIsolated(spec mapred.JobSpec, vmsPerPM int, seed int64, pool *metricsPool) (testbed.JobResult, error) {
	var sum testbed.JobResult
	const repeats = 3
	for r := 0; r < repeats; r++ {
		opts := testbed.Options{Seed: seed + int64(r)*131, PMs: testbedPMs, VMsPerPM: vmsPerPM, Obs: pool.sinks()}
		if vmsPerPM == 1 {
			// A single VM per PM is sized to fill the host, as an
			// operator would configure it.
			opts.VMCPUs = 2
			opts.VMMemoryMB = 2048
		}
		rig, err := testbed.New(opts)
		if err != nil {
			return testbed.JobResult{}, err
		}
		res, err := rig.RunJob(scaledSpec(spec))
		if err != nil {
			return testbed.JobResult{}, err
		}
		sum.Name = res.Name
		sum.CritPath = res.CritPath
		sum.JCT += res.JCT / repeats
		sum.MapPhase += res.MapPhase / repeats
		sum.ReducePhase += res.ReducePhase / repeats
	}
	return sum, nil
}

// Fig1a reproduces Figure 1(a): percentage increase in JCT of the six
// benchmarks on a 48-VM virtual cluster (1, 2 and 4 VMs per PM) relative
// to an equivalent 48-node physical cluster.
func Fig1a() (*Outcome, error) {
	out := &Outcome{Table: &Table{
		ID:      "fig1a",
		Title:   "% increase in JCT on virtual vs equivalent native cluster (24 PMs)",
		Columns: []string{"benchmark", "1-VM", "2-VM", "4-VM"},
	}}
	specs := workload.Benchmarks()
	densities := []int{0, 1, 2, 4}
	pool := newMetricsPool()
	// Every (benchmark, density) pair is an independent sweep point:
	// fan them all out, then assemble rows in paper order.
	results, err := Map(len(specs)*len(densities), func(i int) (testbed.JobResult, error) {
		spec := specs[i/len(densities)]
		vpp := densities[i%len(densities)]
		res, err := runIsolated(spec, vpp, 101, pool)
		if err != nil {
			return testbed.JobResult{}, fmt.Errorf("fig1a %s %d-VM: %w", spec.Name, vpp, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	var ioMin, ioMax, cpuMax float64
	ioMin = 1e9
	for si, spec := range specs {
		native := results[si*len(densities)]
		row := []Cell{Str(spec.Name)}
		for di := 1; di < len(densities); di++ {
			virt := results[si*len(densities)+di]
			incr := virt.JCT.Seconds()/native.JCT.Seconds() - 1
			row = append(row, Pct(incr))
			if workload.IsCPUBound(spec) {
				if incr > cpuMax {
					cpuMax = incr
				}
			} else {
				if incr < ioMin {
					ioMin = incr
				}
				if incr > ioMax {
					ioMax = incr
				}
			}
		}
		out.Table.AddCells(row...)
	}
	out.Notef("I/O-bound jobs degrade %.0f-%.0f%% on virtual (paper: 7-24%%)", ioMin*100, ioMax*100)
	out.Notef("CPU-bound jobs degrade at most %.0f%% (paper: within 8%%)", cpuMax*100)
	out.Scalar("io_degrade_min", ioMin)
	out.Scalar("io_degrade_max", ioMax)
	out.Scalar("cpu_degrade_max", cpuMax)
	out.Metrics = pool.snapshot()
	var paths critPaths
	for si, spec := range specs {
		// The native run's critical path, per benchmark (the last of the
		// three averaged repeats).
		paths.add(spec.Name, results[si*len(densities)].CritPath)
	}
	out.CritPaths = paths.m
	return out, nil
}

// Fig1b reproduces Figure 1(b): Sort JCT at 1, 8 and 16 GB under 1, 2
// and 4 VMs per PM — the native/virtual gap widens with data size.
func Fig1b() (*Outcome, error) {
	out := &Outcome{Table: &Table{
		ID:      "fig1b",
		Title:   "Sort JCT (s) vs input size and VMs per PM (48 VMs)",
		Columns: []string{"config", "Sort-1GB", "Sort-8GB", "Sort-16GB"},
	}}
	sizes := []float64{1 * workload.GB, 8 * workload.GB, 16 * workload.GB}
	densities := []int{0, 1, 2, 4}
	pool := newMetricsPool()
	results, err := Map(len(densities)*len(sizes), func(i int) (testbed.JobResult, error) {
		vpp := densities[i/len(sizes)]
		mb := sizes[i%len(sizes)]
		return runIsolated(workload.Sort().WithInputMB(mb), vpp, 103, pool)
	})
	if err != nil {
		return nil, err
	}
	gapSmall, gapLarge := 0.0, 0.0
	natives := results[:len(sizes)]
	for di := 1; di < len(densities); di++ {
		vpp := densities[di]
		row := []Cell{Str(fmt.Sprintf("%d-VM", vpp))}
		for i := range sizes {
			res := results[di*len(sizes)+i]
			row = append(row, Sec(res.JCT))
			if vpp == 4 {
				gap := res.JCT.Seconds()/natives[i].JCT.Seconds() - 1
				if i == 0 {
					gapSmall = gap
				}
				if i == len(sizes)-1 {
					gapLarge = gap
				}
			}
		}
		out.Table.AddCells(row...)
	}
	out.Notef("4-VM virtual gap grows from %.0f%% at 1 GB to %.0f%% at 16 GB (paper: gap widens with data size)",
		gapSmall*100, gapLarge*100)
	out.Scalar("gap_small", gapSmall)
	out.Scalar("gap_large", gapLarge)
	out.Metrics = pool.snapshot()
	return out, nil
}

// Fig1c reproduces Figure 1(c): TestDFSIO read/write IO rate and
// throughput on the virtual cluster normalized to the native cluster,
// for total data sizes of 1-16 GB.
func Fig1c() (*Outcome, error) {
	out := &Outcome{Table: &Table{
		ID:      "fig1c",
		Title:   "Virtual HDFS TestDFSIO normalized to native (48 workers)",
		Columns: []string{"data(GB)", "R-IO", "W-IO", "R-Tput", "W-Tput"},
	}}
	type point struct{ rio, wio, rtp, wtp float64 }
	pool := newMetricsPool()
	run := func(vmsPerPM int, totalMB float64) (point, error) {
		sinks := pool.sinks()
		engine := sim.New()
		sinks.Bind(engine)
		cl := cluster.New(engine, cluster.Config{}, 107, &sinks)
		fs := dfs.New(engine, 107, &sinks)
		var nodes []cluster.Node
		if vmsPerPM <= 0 {
			for _, pm := range cl.AddPMs("pm", testbedPMs) {
				nodes = append(nodes, pm)
			}
		} else {
			pms := cl.AddPMs("pm", testbedPMs)
			vms, err := cl.SpreadVMs("vm", testbedPMs*vmsPerPM, pms, 1, 1024)
			if err != nil {
				return point{}, err
			}
			for _, vm := range vms {
				nodes = append(nodes, vm)
			}
		}
		for _, n := range nodes {
			fs.AddDataNode(n)
		}
		fileMB := totalMB / float64(len(nodes))
		if fileMB < 16 {
			fileMB = 16
		}
		w, err := dfs.TestDFSIOWrite(fs, nodes, fileMB)
		if err != nil {
			return point{}, err
		}
		r, err := dfs.TestDFSIORead(fs, nodes, fileMB)
		if err != nil {
			return point{}, err
		}
		return point{rio: r.AvgIORateMBps, wio: w.AvgIORateMBps, rtp: r.ThroughputMBps, wtp: w.ThroughputMBps}, nil
	}
	sizes := []float64{1, 2, 4, 8, 16}
	type pair struct{ nat, virt point }
	results, err := Map(len(sizes), func(i int) (pair, error) {
		totalMB := scaledMB(sizes[i] * workload.GB)
		nat, err := run(0, totalMB)
		if err != nil {
			return pair{}, err
		}
		virt, err := run(2, totalMB)
		if err != nil {
			return pair{}, err
		}
		return pair{nat: nat, virt: virt}, nil
	})
	if err != nil {
		return nil, err
	}
	firstR, lastR, maxNorm := 0.0, 0.0, 0.0
	for i, gb := range sizes {
		nat, virt := results[i].nat, results[i].virt
		norm := point{
			rio: virt.rio / nat.rio, wio: virt.wio / nat.wio,
			rtp: virt.rtp / nat.rtp, wtp: virt.wtp / nat.wtp,
		}
		out.Table.AddCells(Str(fmt.Sprintf("%.0f", gb)), F3(norm.rio), F3(norm.wio), F3(norm.rtp), F3(norm.wtp))
		for _, v := range []float64{norm.rio, norm.wio, norm.rtp, norm.wtp} {
			if v > maxNorm {
				maxNorm = v
			}
		}
		if i == 0 {
			firstR = norm.rio
		}
		if i == len(sizes)-1 {
			lastR = norm.rio
		}
	}
	out.Notef("virtual HDFS runs below native everywhere; read-IO ratio falls from %.2f at 1 GB to %.2f at 16 GB (paper: gap broadens with data size)",
		firstR, lastR)
	out.Scalar("read_io_first", firstR)
	out.Scalar("read_io_last", lastR)
	out.Scalar("max_norm", maxNorm)
	out.Metrics = pool.snapshot()
	return out, nil
}
