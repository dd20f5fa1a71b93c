// Package testbed assembles ready-to-run simulated clusters — native,
// virtual (k VMs per PM), Dom-0, split-architecture and hybrid — wired
// with a DFS and a MapReduce JobTracker. A hybrid rig (Options.NativePMs)
// adds a native partition with its own DFS and JobTracker beside the
// rig's own, as in the paper's hybrid data center. The HybridMR core and
// every experiment build their scenarios from these rigs, mirroring the
// paper's testbed of 24 physical nodes and 48 VMs.
package testbed

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/critpath"
	"repro/internal/dfs"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Options selects a rig shape. Zero values mean: native cluster, paper
// hardware, the paper's Fair scheduling.
type Options struct {
	// PMs is the number of physical machines in the rig's own partition
	// (default 4 when NativePMs is 0). Zero with NativePMs > 0 builds the
	// native partition alone, with nil JT and FS.
	PMs int
	// NativePMs > 0 adds a native partition of that many PMs, named
	// native-i and built after the rig's own partition, in the same rack
	// and power-domain striping. It runs its own DFS (seeded Seed+13) and
	// its own JobTracker (Rig.NativeJT, with the Policies' Phase II
	// scheduler over a default MapredConfig), as on the paper's testbed:
	// native jobs neither read blocks from nor interfere with the other
	// partition's DataNodes.
	NativePMs int
	// VMsPerPM > 0 builds a virtual cluster with that many VMs on each
	// PM; 0 runs tasks natively on the PMs.
	VMsPerPM int
	// VMMemoryMB sizes each VM (default 1024, the paper's 1 GB guests).
	VMMemoryMB float64
	// VMCPUs is vCPUs per VM (default 1).
	VMCPUs int
	// Racks > 0 assigns the PMs to that many racks in contiguous runs
	// (cluster.StripeTopology), enabling rack-aware DFS placement and
	// the rack-level correlated faults (rack-crash, net-partition).
	// Zero leaves the cluster topology-free, exactly as before.
	Racks int
	// PowerDomains > 0 stripes the PMs round-robin across that many
	// power domains (PDUs that cross-cut racks), enabling power-crash
	// correlated faults.
	PowerDomains int
	// Dom0 runs "native" execution in the privileged domain, with its
	// small overhead (Figure 2(c)).
	Dom0 bool
	// Split deploys the split architecture of Figure 3: VMsPerPM
	// TaskTracker (compute) VMs per PM plus one DataNode (storage) VM
	// per PM that all of the PM's TaskTrackers read through. Compute
	// parallelism matches the combined layout; data stays put when
	// compute VMs move.
	Split bool
	// Seed fixes all randomized decisions.
	Seed int64
	// MapredConfig overrides framework parameters (zero fields default).
	MapredConfig mapred.Config
	// Policies selects the Phase II policy: the JobTracker's slot
	// scheduler and a straggler threshold for a zero
	// MapredConfig.SpeculationSlowdown (policy.Set.Phase2Setup). Nil is
	// the paper's set: Fair, as on the paper's testbed. The Phase I, DRM
	// and IPS seams are consumed by core.Config.Policies; a plain rig
	// has no System.
	Policies *policy.Set
	// Obs holds the rig's recording sinks, bound to the rig's engine and
	// passed to every layer as it is built; the zero value records
	// nothing. See obs.Sinks.
	Obs obs.Sinks
	// Faults, when non-nil, arms the rig's fault injector with the given
	// schedule and/or chaos profile. A zero Faults.Seed derives one from
	// the rig seed, so a chaos run is pinned by -seed alone.
	Faults *fault.Options
	// Invariants, when non-nil, is attached to every layer of the rig
	// (both partitions of a hybrid rig) as a runtime safety-invariant
	// checker; read its Violations (or call Final) after the run.
	// Checkers are per-rig, like the sinks.
	Invariants *invariant.Checker
}

func (o Options) withDefaults() Options {
	if o.PMs <= 0 && o.NativePMs <= 0 {
		o.PMs = 4
	}
	if o.VMMemoryMB <= 0 {
		o.VMMemoryMB = 1024
	}
	if o.VMCPUs <= 0 {
		o.VMCPUs = 1
	}
	return o
}

// Rig is an assembled simulation environment.
type Rig struct {
	// Engine is the shared discrete-event engine.
	Engine *sim.Engine
	// Cluster holds the PMs and VMs.
	Cluster *cluster.Cluster
	// FS is the distributed filesystem (nil for a native-only rig).
	FS *dfs.FileSystem
	// JT is the MapReduce framework RunJob and RunJobs submit to (nil for
	// a native-only rig).
	JT *mapred.JobTracker
	// NativeJT is the native partition's JobTracker, over its own DFS
	// (nil unless Options.NativePMs was set).
	NativeJT *mapred.JobTracker
	// Workers are the compute nodes registered as TaskTrackers with JT.
	Workers []cluster.Node
	// PMs are the physical machines backing the rig's own partition; the
	// native partition's PMs follow them in Cluster.PMs.
	PMs []*cluster.PM
	// VMs are all provisioned VMs (empty for native rigs).
	VMs []*cluster.VM
	// Faults injects failures into the rig, spanning both partitions of
	// a hybrid rig; it is always constructed (manual injection works on
	// any rig) and armed only when Options.Faults was set.
	Faults *fault.Injector
	// Invariants is the runtime safety-invariant checker (nil unless
	// Options.Invariants was set).
	Invariants *invariant.Checker
	// OnAllJobsDone, if set before RunJob/RunJobs, fires when the last
	// submitted job completes — while the engine is still draining.
	// Callers use it to stop periodic observers (utilization samplers)
	// whose ticks would otherwise keep the event queue alive forever.
	OnAllJobsDone func()
	// Obs is the rig's bound observer handle: Options.Obs, plus the Perf
	// collector Bind creates when only Metrics was set.
	Obs obs.Sinks
}

// New assembles a rig.
func New(opts Options) (*Rig, error) {
	opts = opts.withDefaults()
	engine := sim.New()
	rig := &Rig{Engine: engine, Obs: opts.Obs}
	rig.Obs.Bind(engine)
	o := &rig.Obs
	cl := cluster.New(engine, cluster.Config{}, opts.Seed, o)
	rig.Cluster = cl
	// The injector and checker span both partitions, the rig's own first.
	var fss []*dfs.FileSystem
	var jts []*mapred.JobTracker
	if opts.PMs > 0 {
		fs := dfs.New(engine, opts.Seed+1, o)
		sched, mrCfg := opts.Policies.Phase2Setup(opts.MapredConfig)
		rig.FS = fs
		rig.JT = mapred.NewJobTracker(engine, fs, mrCfg, sched, o, "")
		fss, jts = append(fss, fs), append(jts, rig.JT)
		rig.PMs = cl.AddPMs("pm", opts.PMs)
		cluster.StripeTopology(rig.PMs, opts.Racks, opts.PowerDomains)
	}
	jt := rig.JT

	switch {
	case opts.PMs <= 0:
		// Native-only: the rig has no partition of its own.
	case opts.VMsPerPM <= 0:
		for _, pm := range rig.PMs {
			if opts.Dom0 {
				pm.SetDom0Mode(true)
			}
			jt.AddTracker(pm)
			rig.Workers = append(rig.Workers, pm)
		}
	case opts.Split:
		for pi, pm := range rig.PMs {
			dn, err := cl.AddVM(fmt.Sprintf("dn-%d", pi), pm, opts.VMCPUs, opts.VMMemoryMB)
			if err != nil {
				return nil, err
			}
			rig.VMs = append(rig.VMs, dn)
			for k := 0; k < opts.VMsPerPM; k++ {
				tt, err := cl.AddVM(fmt.Sprintf("tt-%d-%d", pi, k), pm, opts.VMCPUs, opts.VMMemoryMB)
				if err != nil {
					return nil, err
				}
				jt.AddSplitTracker(tt, dn)
				rig.Workers = append(rig.Workers, tt)
				rig.VMs = append(rig.VMs, tt)
			}
		}
	default:
		vms, err := cl.SpreadVMs("vm", opts.PMs*opts.VMsPerPM, rig.PMs, opts.VMCPUs, opts.VMMemoryMB)
		if err != nil {
			return nil, err
		}
		rig.VMs = vms
		for _, vm := range vms {
			jt.AddTracker(vm)
			rig.Workers = append(rig.Workers, vm)
		}
	}

	if opts.NativePMs > 0 {
		pms := cl.AddPMs("native", opts.NativePMs)
		cluster.StripeTopology(pms, opts.Racks, opts.PowerDomains)
		fs := dfs.New(engine, opts.Seed+13, o)
		sched, mrCfg := opts.Policies.Phase2Setup(mapred.Config{})
		rig.NativeJT = mapred.NewJobTracker(engine, fs, mrCfg, sched, o, "native")
		for _, pm := range pms {
			rig.NativeJT.AddTracker(pm)
		}
		fss, jts = append(fss, fs), append(jts, rig.NativeJT)
	}

	faultOpts := fault.Options{Seed: opts.Seed + 2}
	if opts.Faults != nil {
		faultOpts = *opts.Faults
		if faultOpts.Seed == 0 {
			faultOpts.Seed = opts.Seed + 2
		}
	}
	// The injector gets its own copy of the handle: a pointer into the
	// rig would keep the rig, and its worker list, alive as long as the
	// injector, which a deployment holds for its whole lifetime.
	sinks := rig.Obs
	rig.Faults = fault.NewInjector(fault.Env{
		Engine:  engine,
		Cluster: cl,
		FSs:     fss,
		JTs:     jts,
		Obs:     &sinks,
	}, faultOpts)
	opts.Invariants.Attach(rig.Faults)
	rig.Invariants = opts.Invariants
	if opts.Faults != nil {
		if err := rig.Faults.Arm(); err != nil {
			return nil, err
		}
	}
	return rig, nil
}

// ServiceVM provisions the dedicated 1-vCPU/1-GB VM for the i-th
// interactive application, named svc-<name>-<i>, on hosts[i mod
// len(hosts)]. The paper runs interactive tenants in their own VMs (and
// adopts the split Hadoop architecture), so service VMs are never
// TaskTrackers or DataNodes: interference with batch work happens at
// the physical-host level.
func ServiceVM(cl *cluster.Cluster, hosts []*cluster.PM, i int, name string) (*cluster.VM, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("testbed: no virtual hosts for service %s", name)
	}
	return cl.AddVM(fmt.Sprintf("svc-%s-%d", name, i), hosts[i%len(hosts)], 1, 1024)
}

// JobResult summarizes one completed job.
type JobResult struct {
	// Name is the job's benchmark name.
	Name string
	// JCT is the completion time.
	JCT time.Duration
	// MapPhase and ReducePhase split the completion time.
	MapPhase    time.Duration
	ReducePhase time.Duration
	// CritPath digests the job's critical path (longest chain of waits
	// and task runs bounding the JCT); nil when analysis failed.
	CritPath *critpath.Summary
}

func resultOf(j *mapred.Job) JobResult {
	res := JobResult{
		Name:        j.Spec.Name,
		JCT:         j.JCT(),
		MapPhase:    j.MapPhase(),
		ReducePhase: j.ReducePhase(),
	}
	if rep, err := j.CriticalPath(); err == nil {
		sum := rep.Summary()
		res.CritPath = &sum
	}
	return res
}

// RunJob runs one job through RunJobs and returns its result.
func (r *Rig) RunJob(spec mapred.JobSpec) (JobResult, error) {
	res, err := r.RunJobs([]mapred.JobSpec{spec})
	if err != nil {
		return JobResult{}, err
	}
	return res[0], nil
}

// FlushPerf writes the engine's occupancy gauges and the cost-counter
// increments accumulated since the last flush into the rig's metrics
// registry (see obs.Sinks.Flush). RunJob/RunJobs flush automatically;
// drivers that pump the engine directly (RunUntil loops) call this
// before snapshotting.
func (r *Rig) FlushPerf() { r.Obs.Flush(r.Engine) }

// RunJobs submits all jobs at once and drives the simulation until every
// one completes.
func (r *Rig) RunJobs(specs []mapred.JobSpec) ([]JobResult, error) {
	jobs := make([]*mapred.Job, 0, len(specs))
	remaining := len(specs)
	for _, spec := range specs {
		job, err := r.JT.Submit(spec, func(*mapred.Job) {
			if remaining--; remaining == 0 && r.OnAllJobsDone != nil {
				r.OnAllJobsDone()
			}
		})
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
	}
	r.Engine.Run()
	r.FlushPerf()
	out := make([]JobResult, 0, len(jobs))
	for _, j := range jobs {
		if !j.Done() {
			return nil, fmt.Errorf("testbed: job %s stalled", j.Spec.Name)
		}
		out = append(out, resultOf(j))
	}
	return out, nil
}
