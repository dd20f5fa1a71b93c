// Package testbed assembles ready-to-run simulated clusters — native,
// virtual (k VMs per PM), Dom-0, split-architecture and hybrid — wired
// with a DFS and a MapReduce JobTracker. The HybridMR core and every
// experiment build their scenarios from these rigs, mirroring the paper's
// testbed of 24 physical nodes and 48 VMs.
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
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Options selects a rig shape. Zero values mean: native cluster, paper
// hardware, FIFO-free (Fair) scheduling off — i.e. FIFO.
type Options struct {
	// PMs is the number of physical machines (default 4).
	PMs int
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
	// ClusterConfig overrides hardware parameters (zero fields default).
	ClusterConfig cluster.Config
	// MapredConfig overrides framework parameters (zero fields default).
	MapredConfig mapred.Config
	// Scheduler overrides the job scheduler (default mapred.Fair, as on
	// the paper's testbed).
	Scheduler mapred.Scheduler
	// Policies, when non-nil, supplies the Phase II half of a policy
	// set: its scheduler is used when Scheduler is nil, and its
	// speculation knobs fill the zero MapredConfig speculation fields.
	// (The Phase I/DRM/IPS halves are consumed by core.Config.Policies;
	// a plain rig has no System.)
	Policies *policy.Set
	// Obs holds the rig's recording sinks, bound to the rig's engine and
	// passed to every layer as it is built; the zero value records
	// nothing. See obs.Sinks.
	Obs obs.Sinks
	// Faults, when non-nil, arms the rig's fault injector with the given
	// schedule and/or chaos profile. A zero Faults.Seed derives one from
	// the rig seed, so a chaos run is pinned by -seed alone.
	Faults *fault.Options
	// Invariants, when non-nil, is attached to every layer of the rig as
	// a runtime safety-invariant checker; read its Violations (or call
	// Final) after the run. Checkers are per-rig, like the sinks.
	Invariants *invariant.Checker
	// SampleInterval sets the cadence of recorders built by Rig.NewRecorder
	// (default 10s). Each sample costs 56 bytes regardless of PM count —
	// utilization is pre-aggregated into a fixed resource.Vector — so one
	// simulated hour at the default interval is ~20 KB even at 10k PMs.
	SampleInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.PMs <= 0 {
		o.PMs = 4
	}
	if o.VMMemoryMB <= 0 {
		o.VMMemoryMB = 1024
	}
	if o.VMCPUs <= 0 {
		o.VMCPUs = 1
	}
	if o.Policies != nil {
		if o.Scheduler == nil {
			o.Scheduler = o.Policies.Phase2.NewScheduler()
		}
		sp := o.Policies.Phase2.Speculation()
		if sp.Disable {
			o.MapredConfig.DisableSpeculation = true
		}
		if sp.Slowdown > 0 && o.MapredConfig.SpeculationSlowdown == 0 {
			o.MapredConfig.SpeculationSlowdown = sp.Slowdown
		}
	}
	if o.Scheduler == nil {
		o.Scheduler = mapred.Fair{}
	}
	return o
}

// Rig is an assembled simulation environment.
type Rig struct {
	// Engine is the shared discrete-event engine.
	Engine *sim.Engine
	// Cluster holds the PMs and VMs.
	Cluster *cluster.Cluster
	// FS is the distributed filesystem.
	FS *dfs.FileSystem
	// JT is the MapReduce framework.
	JT *mapred.JobTracker
	// Workers are the compute nodes registered as TaskTrackers.
	Workers []cluster.Node
	// PMs are the physical machines backing the rig.
	PMs []*cluster.PM
	// VMs are all provisioned VMs (empty for native rigs).
	VMs []*cluster.VM
	// Faults injects failures into the rig; it is always constructed
	// (manual injection works on any rig) and armed only when
	// Options.Faults was set.
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

	sampleInterval time.Duration
}

// New assembles a rig.
func New(opts Options) (*Rig, error) {
	opts = opts.withDefaults()
	engine := sim.New()
	rig := &Rig{Engine: engine, Obs: opts.Obs, sampleInterval: opts.SampleInterval}
	rig.Obs.Bind(engine)
	o := &rig.Obs
	cl := cluster.New(engine, opts.ClusterConfig, opts.Seed, o)
	fs := dfs.New(engine, dfs.Config{}, opts.Seed+1, o)
	jt := mapred.NewJobTracker(engine, fs, opts.MapredConfig, opts.Scheduler, o, "")
	rig.Cluster, rig.FS, rig.JT = cl, fs, jt
	rig.PMs = cl.AddPMs("pm", opts.PMs)
	cluster.StripeTopology(rig.PMs, opts.Racks, opts.PowerDomains)

	switch {
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

	faultOpts := fault.Options{Seed: opts.Seed + 2}
	if opts.Faults != nil {
		faultOpts = *opts.Faults
		if faultOpts.Seed == 0 {
			faultOpts.Seed = opts.Seed + 2
		}
	}
	rig.Faults = fault.NewInjector(fault.Env{
		Engine:  engine,
		Cluster: cl,
		FSs:     []*dfs.FileSystem{fs},
		JTs:     []*mapred.JobTracker{jt},
		Obs:     o,
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

// FailPM crashes one of the rig's physical machines and propagates the
// failure through every layer: trackers on the machine are declared
// lost (MapReduce re-executes their attempts and any stranded map
// outputs elsewhere), in-flight migrations touching the machine are
// aborted, and the DFS re-replicates the blocks that lost a copy. It
// returns the DFS damage report. The error return is always nil and
// kept for compatibility.
func (r *Rig) FailPM(pm *cluster.PM) (dfs.FailureReport, error) {
	return r.Faults.CrashPM(pm), nil
}

// RunJob submits a job and drives the simulation until it completes.
func (r *Rig) RunJob(spec mapred.JobSpec) (JobResult, error) {
	job, err := r.JT.Submit(spec, func(*mapred.Job) {
		if r.OnAllJobsDone != nil {
			r.OnAllJobsDone()
		}
	})
	if err != nil {
		return JobResult{}, err
	}
	r.Engine.Run()
	r.FlushPerf()
	if !job.Done() {
		return JobResult{}, fmt.Errorf("testbed: job %s stalled (deadlock or starvation)", spec.Name)
	}
	return resultOf(job), nil
}

// FlushPerf writes the engine's occupancy gauges and the cost-counter
// increments accumulated since the last flush into the rig's metrics
// registry (see obs.Sinks.Flush). RunJob/RunJobs flush automatically;
// drivers that pump the engine directly (RunUntil loops) call this
// before snapshotting.
func (r *Rig) FlushPerf() { r.Obs.Flush(r.Engine) }

// NewRecorder builds a utilization/power recorder over the rig's cluster
// at Options.SampleInterval (default 10s), wired to the rig's telemetry
// collector when one was configured — each tick then also samples the
// registered probes (engine depth, task queues) and the cluster gauges.
// Stop it (typically from OnAllJobsDone) before draining the queue, or
// give it a horizon.
func (r *Rig) NewRecorder(horizon time.Duration) *metrics.Recorder {
	return metrics.NewRecorder(r.Cluster, r.sampleInterval, horizon, &r.Obs)
}

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
