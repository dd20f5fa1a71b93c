// Package hybridmr reproduces "HybridMR: A Hierarchical MapReduce
// Scheduler for Hybrid Data Centers" (Sharma, Wood, Das — ICDCS 2013) as
// a self-contained Go library.
//
// Because the paper's testbed (24 physical servers, Xen 3.4, Hadoop
// v0.22, RUBiS/TPC-W/Olio) is not reproducible directly, every substrate
// is rebuilt as a deterministic discrete-event simulation; see DESIGN.md
// for the substitution inventory. This package is the public facade: it
// re-exports the pieces a user composes — simulated clusters, the
// MapReduce framework, interactive services, the HybridMR two-phase
// scheduler — plus turnkey helpers for building hybrid deployments and
// re-running the paper's experiments.
//
// # Quick start
//
//	dc, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{
//		NativePMs: 12, VirtualHostPMs: 12, VMsPerHost: 2, Seed: 1,
//	})
//	...
//	svc, _ := dc.DeployService(hybridmr.RUBiS())
//	svc.SetClients(2000)
//	job, placement, _ := dc.System.SubmitJob(hybridmr.Sort(), 0, nil)
//	dc.RunFor(30 * time.Minute)
//
// See examples/ for runnable programs and internal/experiments for the
// paper's full evaluation.
package hybridmr

import (
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perfstat"
	"repro/internal/policy"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/timeseries"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Re-exported building blocks. The facade names the pieces a downstream
// user needs without reaching into internal packages.
type (
	// Cluster is the simulated data center.
	Cluster = cluster.Cluster
	// PM and VM are physical and virtual machines.
	PM = cluster.PM
	VM = cluster.VM
	// JobSpec describes a MapReduce job's workload shape.
	JobSpec = mapred.JobSpec
	// Job is a submitted MapReduce job.
	Job = mapred.Job
	// JobTracker is the MapReduce framework instance.
	JobTracker = mapred.JobTracker
	// Service is a deployed interactive application.
	Service = workload.Service
	// ServiceSpec describes an interactive application.
	ServiceSpec = workload.ServiceSpec
	// System is the HybridMR two-phase scheduler.
	System = core.System
	// SystemConfig tunes the scheduler.
	SystemConfig = core.Config
	// Placement says which partition a job ran on.
	Placement = core.Placement
	// Recorder samples utilization and integrates energy.
	Recorder = metrics.Recorder
	// MigrationStats reports a completed live VM migration.
	MigrationStats = cluster.MigrationStats
	// Rig is a pre-wired testbed: one partition, plus a native one in
	// Rig.NativeJT when RigOptions.NativePMs is set.
	Rig = testbed.Rig
	// RigOptions shapes a Rig. NativePMs > 0 adds a native partition
	// with its own DFS and JobTracker; PMs 0 then builds it alone.
	RigOptions = testbed.Options
	// Experiment is one of the paper's figures.
	Experiment = experiments.Experiment
	// Tracer records structured spans and instant events from every
	// layer of the simulation; export with WriteChromeTrace or
	// WriteJSONL.
	Tracer = trace.Tracer
	// MetricsRegistry collects counters, gauges and histograms.
	MetricsRegistry = trace.Registry
	// MetricsSnapshot is a point-in-time, mergeable view of a registry.
	MetricsSnapshot = trace.Snapshot
	// AuditLog records every scheduling, migration and fault-recovery
	// decision with its candidates and rationale; export with WriteJSONL.
	AuditLog = audit.Log
	// AuditRecord is one audited decision.
	AuditRecord = audit.Record
	// AuditCandidate is one alternative a decision weighed.
	AuditCandidate = audit.Candidate
	// CriticalPathReport is a completed job's critical-path profile; see
	// Job.CriticalPath.
	CriticalPathReport = critpath.Report
	// CriticalPathStep is one task on the critical path.
	CriticalPathStep = critpath.Step
	// TraceFormat selects a trace export encoding.
	TraceFormat = trace.ExportFormat
	// FaultInjector injects seed-deterministic failures (machine
	// crashes, VM crashes, tracker hangs, block loss, stragglers) into a
	// deployment, driven by the simulation clock.
	FaultInjector = fault.Injector
	// FaultOptions arms a FaultInjector with a declarative schedule
	// and/or a rate-based chaos profile.
	FaultOptions = fault.Options
	// FaultProfile is a rate-based chaos description (events per
	// simulated hour, per kind).
	FaultProfile = fault.Profile
	// ScheduledFault is one declarative injection at a fixed time.
	ScheduledFault = fault.ScheduledFault
	// FaultKind names a fault class.
	FaultKind = fault.Kind
	// PerfStats collects algorithmic cost counters and hierarchical
	// wall-time spans from every layer of a deployment; hand one to
	// ClusterSpec.Perf or RigOptions.Obs.Perf. Nil-safe: a nil *PerfStats
	// disables all instrumentation.
	PerfStats = perfstat.Stats
	// PerfSnapshot is a point-in-time view of a PerfStats: counter map
	// plus span trees.
	PerfSnapshot = perfstat.Snapshot
	// InvariantChecker observes a running deployment and records any
	// breach of the simulator's cross-layer safety invariants (lost-data
	// reads, double-scheduled attempts, migrations committed to dead or
	// unreachable hosts, unhealed replication, job livelock). Hand one to
	// ClusterSpec.Invariants or RigOptions.Invariants and read Final()
	// after the run. Nil-safe: every method no-ops on a nil checker.
	InvariantChecker = invariant.Checker
	// InvariantViolation is one recorded invariant breach, with the last
	// audited decision before it tripped (when an AuditLog was wired).
	InvariantViolation = invariant.Violation
	// TimeSeriesCollector aggregates counters, gauges and histogram
	// digests into sim-clock windows with fixed memory regardless of run
	// length; hand one to ClusterSpec.TimeSeries or
	// RigOptions.Obs.TimeSeries. Nil-safe: a nil collector disables all
	// windowed telemetry.
	TimeSeriesCollector = timeseries.Collector
	// TimeSeriesSnapshot is one series' windowed aggregates.
	TimeSeriesSnapshot = timeseries.SeriesSnapshot
	// SLOObjective is one declarative service-level objective evaluated
	// per window against the collected telemetry.
	SLOObjective = timeseries.Objective
	// SLOReport is the summary the SLO engine emits: per-objective error
	// budgets, burn-rate alert episodes and met/missed verdicts.
	SLOReport = timeseries.SLOReport
	// SLOWindowEval is one objective's evaluation of one window (the SLO
	// JSONL row).
	SLOWindowEval = timeseries.WindowEval
	// SLOAlert is one contiguous burn-rate alert episode.
	SLOAlert = timeseries.Alert
	// PolicySet is a resolved bundle of scheduling policies, one per
	// seam (Phase I placement, DRM, IPS, Phase II slots+speculation);
	// hand one to ClusterSpec.Config.Policies or RigOptions.Policies.
	PolicySet = policy.Set
	// PolicySpec is the textual policy selection the -policy flag
	// parses; Resolve it into a PolicySet.
	PolicySpec = policy.Spec
)

// ParsePolicySpec parses the -policy command-line syntax (comma-
// separated key=value pairs: p1, drm, ips, p2, p1.overhead,
// p2.slowdown) into a PolicySpec, validating every policy name against
// the registry.
var ParsePolicySpec = policy.ParseSpec

// DefaultPolicies returns the paper's policy set.
var DefaultPolicies = policy.Default

// Policy registry listings, one per seam.
var (
	Phase1PolicyNames = policy.Phase1Names
	DRMPolicyNames    = policy.DRMNames
	IPSPolicyNames    = policy.IPSNames
	Phase2PolicyNames = policy.Phase2Names
)

// NewPerfStats builds an empty performance-attribution collector.
var NewPerfStats = perfstat.New

// NewTimeSeries builds a windowed telemetry collector; non-positive
// arguments take the defaults (10s windows, 240 of them before
// downsampling doubles the width).
var NewTimeSeries = timeseries.New

// DefaultSLOObjectives returns the simulator's stock SLO set.
var DefaultSLOObjectives = timeseries.DefaultObjectives

// EvaluateSLOs runs objectives over a collector's windows, returning the
// summary report and the per-window evaluation rows.
var EvaluateSLOs = timeseries.Evaluate

// NewInvariantChecker builds an unattached safety-invariant checker.
var NewInvariantChecker = invariant.New

// Fault kinds.
const (
	FaultPMCrash     = fault.PMCrash
	FaultPMRepair    = fault.PMRepair
	FaultVMCrash     = fault.VMCrash
	FaultTrackerHang = fault.TrackerHang
	FaultBlockLoss   = fault.BlockLoss
	FaultStraggler   = fault.Straggler
	// Correlated fault kinds; these require a topology (ClusterSpec.Racks
	// / ClusterSpec.PowerDomains, or RigOptions equivalents) and fail all
	// machines in the chosen domain atomically.
	FaultRackCrash        = fault.RackCrash
	FaultPowerDomainCrash = fault.PowerDomainCrash
	FaultNetPartition     = fault.NetPartition
)

// ParseFaultProfile parses the -faults command-line syntax (comma-
// separated key=value pairs) into a FaultProfile.
var ParseFaultProfile = fault.ParseProfile

// NewTracer builds an unbound tracer; hand it to ClusterSpec.Tracer or
// RigOptions.Obs.Tracer and its clock is bound to the simulation engine
// when the cluster is assembled.
func NewTracer() *Tracer { return trace.New(nil) }

// NewMetricsRegistry builds an empty metrics registry.
var NewMetricsRegistry = trace.NewRegistry

// NewAuditLog builds a decision log holding up to capacity records
// (<= 0 uses a generous default); hand it to ClusterSpec.Audit or
// RigOptions.Obs.Audit and its clock is bound to the simulation engine
// when the cluster is assembled.
var NewAuditLog = audit.New

// Trace export formats.
const (
	TraceFormatChrome = trace.FormatChrome
	TraceFormatJSONL  = trace.FormatJSONL
)

// Placements.
const (
	PlacedNative  = core.PlacedNative
	PlacedVirtual = core.PlacedVirtual
)

// Resource dimensions, for Recorder queries.
const (
	CPU    = resource.CPU
	Memory = resource.Memory
	DiskIO = resource.DiskIO
	NetIO  = resource.NetIO
)

// The paper's six MapReduce benchmarks.
var (
	Twitter  = workload.Twitter
	Wcount   = workload.Wcount
	PiEst    = workload.PiEst
	DistGrep = workload.DistGrep
	Sort     = workload.Sort
	Kmeans   = workload.Kmeans
	// Benchmarks returns all six in figure order.
	Benchmarks = workload.Benchmarks
)

// The paper's three interactive applications.
var (
	RUBiS = workload.RUBiS
	TPCW  = workload.TPCW
	Olio  = workload.Olio
)

// NewRig builds a testbed: one partition (native, virtual, Dom-0 or
// split architecture), the shape used by the paper's Section II
// analyses, or with RigOptions.NativePMs the hybrid layout
// NewHybridCluster runs HybridMR on.
var NewRig = testbed.New

// Experiments returns the paper's figure reproductions in paper order.
var Experiments = experiments.All

// ExtensionExperiments returns the beyond-the-paper studies: the named
// future-work directions (iterative/in-memory MapReduce), an open
// arrival-stream comparison, and ablations of HybridMR's design choices.
var ExtensionExperiments = experiments.Extensions

// ExperimentByID finds one figure reproduction, e.g. "fig8b".
var ExperimentByID = experiments.ByID

// ClusterSpec describes a hybrid deployment: a native MapReduce
// partition, a virtualized partition whose VMs host both MapReduce
// workers and interactive services, and the HybridMR scheduler over both.
type ClusterSpec struct {
	// NativePMs is the physical partition size (0 = virtual-only).
	NativePMs int
	// VirtualHostPMs is the number of PMs hosting VMs (0 = native-only).
	VirtualHostPMs int
	// VMsPerHost is the VM density (default 2, the paper's layout).
	VMsPerHost int
	// Racks > 0 assigns each partition's PMs to that many racks in
	// contiguous runs (machines in one rack sit behind one top-of-rack
	// switch). A topology enables rack-aware DFS replica placement and
	// the correlated fault kinds FaultRackCrash and FaultNetPartition.
	// Both partitions share rack labels: rack-0 holds native and virtual
	// machines alike, so a rack failure cuts across partitions, as a
	// shared facility implies. Zero leaves the deployment topology-free.
	Racks int
	// PowerDomains > 0 stripes each partition's PMs round-robin across
	// that many power domains (PDUs cross-cut racks, feeding one machine
	// per chassis row), enabling FaultPowerDomainCrash. Zero leaves the
	// power topology unassigned.
	PowerDomains int
	// Seed fixes all randomized behaviour.
	Seed int64
	// Config tunes the HybridMR scheduler (zero = paper defaults). Its
	// Policies field selects a controller implementation per seam —
	// Phase I placement, DRM balancing, IPS arbitration, and Phase II
	// slot assignment and speculation on both partitions. Nil takes the
	// paper's defaults; resolve one from -policy syntax with
	// ParsePolicySpec + Resolve.
	Config SystemConfig
	// VanillaHadoop disables HybridMR's Phase II behaviours on the
	// virtual partition (static slot containers remain), for baseline
	// comparisons.
	VanillaHadoop bool
	// Tracer, when non-nil, records structured events from every layer
	// of the deployment. Its clock is bound to the cluster's engine.
	Tracer *Tracer
	// Metrics, when non-nil, receives the deployment's counters, gauges
	// and histograms.
	Metrics *MetricsRegistry
	// Faults, when non-nil, arms the deployment's fault injector with
	// the given schedule and/or chaos profile, spanning both partitions.
	// A zero Faults.Seed derives one from Seed.
	Faults *FaultOptions
	// Audit, when non-nil, records every Phase I placement, Phase II
	// scheduling action, migration and fault-recovery decision made by
	// the deployment. Its clock is bound to the cluster's engine.
	Audit *AuditLog
	// Perf, when non-nil, collects algorithmic cost counters and
	// wall-time spans from every layer of the deployment. When nil but
	// Metrics is set, the deployment creates its own collector so
	// counter increments surface in the registry (as perfstat.*
	// counters, flushed by RunFor/RunUntilIdle). Collectors must not be
	// shared across concurrently running deployments.
	Perf *PerfStats
	// Invariants, when non-nil, is attached to every layer of the
	// deployment (both partitions and the fault injector) as a runtime
	// safety-invariant checker; read its Final() after the run. Checkers
	// are per-deployment, like Perf.
	Invariants *InvariantChecker
	// TimeSeries, when non-nil, attaches a windowed telemetry collector
	// to every layer of the deployment: per-service latency and
	// SLA-violation series, per-job slot-wait histograms, task-queue
	// depths, migration and power churn, and the engine's occupancy
	// gauges. Pair with NewRecorder so probe-backed series get sampled.
	// Collectors are per-deployment, like Perf.
	TimeSeries *TimeSeriesCollector
}

// HybridCluster is a ready-to-use hybrid data center running HybridMR.
type HybridCluster struct {
	// System is the HybridMR scheduler; submit jobs through it.
	System *System
	// Cluster is the underlying hardware model.
	Cluster *Cluster
	// NativeJT and VirtualJT are the two MapReduce partitions (either
	// may be nil).
	NativeJT  *JobTracker
	VirtualJT *JobTracker
	// VMs are the virtual partition's worker VMs.
	VMs []*VM
	// HostPMs are the PMs hosting the virtual partition.
	HostPMs []*PM
	// Faults injects failures across both partitions; it is always
	// constructed (manual injection works on any deployment) and armed
	// only when ClusterSpec.Faults was set.
	Faults *FaultInjector
	// Perf is the deployment's performance-attribution collector (nil
	// when neither ClusterSpec.Perf nor ClusterSpec.Metrics was set).
	Perf *PerfStats

	engine  *sim.Engine
	nextSvc int
	obs     obs.Sinks
}

// NewHybridCluster assembles a hybrid data center per the spec and wires
// the HybridMR scheduler over it.
func NewHybridCluster(spec ClusterSpec) (*HybridCluster, error) {
	if spec.NativePMs <= 0 && spec.VirtualHostPMs <= 0 {
		return nil, fmt.Errorf("hybridmr: cluster needs at least one partition")
	}
	if spec.VMsPerHost <= 0 {
		spec.VMsPerHost = 2
	}

	rig, err := testbed.New(testbed.Options{
		PMs:          spec.VirtualHostPMs,
		NativePMs:    spec.NativePMs,
		VMsPerPM:     spec.VMsPerHost,
		Racks:        spec.Racks,
		PowerDomains: spec.PowerDomains,
		Seed:         spec.Seed,
		MapredConfig: mapred.Config{
			SlotCaps:      true,
			CapacityAware: !spec.VanillaHadoop,
		},
		Policies: spec.Config.Policies,
		Obs: obs.Sinks{
			Tracer: spec.Tracer, Metrics: spec.Metrics, Audit: spec.Audit,
			Perf: spec.Perf, TimeSeries: spec.TimeSeries,
		},
		Faults:     spec.Faults,
		Invariants: spec.Invariants,
	})
	if err != nil {
		return nil, err
	}
	// Copy the rig's fields, the bound handle included: a pointer into
	// the rig would keep the rig, and its worker list, alive for the
	// deployment's lifetime.
	hc := &HybridCluster{
		Cluster:   rig.Cluster,
		NativeJT:  rig.NativeJT,
		VirtualJT: rig.JT,
		VMs:       rig.VMs,
		HostPMs:   rig.PMs,
		Faults:    rig.Faults,
		Perf:      rig.Obs.Perf,
		engine:    rig.Engine,
		obs:       rig.Obs,
	}

	cfg := spec.Config
	if spec.VanillaHadoop {
		cfg.DisableDRM = true
		cfg.DisableIPS = true
	}
	hc.System, err = core.NewSystem(hc.Cluster, hc.NativeJT, hc.VirtualJT, cfg, &hc.obs)
	if err != nil {
		return nil, err
	}
	return hc, nil
}

// DeployService provisions a dedicated 1-vCPU/1-GB VM on one of the
// virtual partition's hosts (round-robin) and deploys the interactive
// application there, registered with the IPS.
func (hc *HybridCluster) DeployService(spec ServiceSpec) (*Service, error) {
	vm, err := testbed.ServiceVM(hc.Cluster, hc.HostPMs, hc.nextSvc, spec.Name)
	if err != nil {
		return nil, err
	}
	hc.nextSvc++
	return hc.System.DeployService(spec, vm)
}

// SubmitJob runs Phase I placement and submits the job; desiredJCT of
// zero means no deadline.
func (hc *HybridCluster) SubmitJob(spec JobSpec, desiredJCT time.Duration, onDone func(*Job)) (*Job, Placement, error) {
	return hc.System.SubmitJob(spec, desiredJCT, onDone)
}

// NewRecorder starts sampling utilization and energy on the cluster. A
// zero interval takes the recorder's 10 s default; each sample costs 56
// bytes regardless of PM count. When the deployment carries a
// TimeSeries collector, each tick also feeds the cluster gauges into it
// and samples the registered probes.
func (hc *HybridCluster) NewRecorder(interval time.Duration) *Recorder {
	return metrics.NewRecorder(hc.Cluster, interval, 0, &hc.obs)
}

// RunFor advances simulated time by d.
func (hc *HybridCluster) RunFor(d time.Duration) {
	hc.engine.RunUntil(hc.engine.Now() + d)
	hc.FlushPerf()
}

// RunUntilIdle drains the event queue (all finite work completes).
// Systems with deployed services never go idle; use RunFor instead.
func (hc *HybridCluster) RunUntilIdle() {
	hc.engine.Run()
	hc.FlushPerf()
}

// FlushPerf writes the engine's occupancy gauges and the cost-counter
// increments accumulated since the last flush into the deployment's
// metrics registry as perfstat.* counters. All counter names are
// materialized — including zero ones — so merged snapshots keep a stable
// key set; wall-time spans stay out of the registry (they are
// nondeterministic). RunFor and RunUntilIdle flush automatically.
func (hc *HybridCluster) FlushPerf() { hc.obs.Flush(hc.engine) }

// Now returns the current simulated time.
func (hc *HybridCluster) Now() time.Duration { return hc.engine.Now() }

// Close stops the scheduler's control loops.
func (hc *HybridCluster) Close() { hc.System.Stop() }
