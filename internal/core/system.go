package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/perfstat"
	"repro/internal/policy"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config tunes the HybridMR system. Zero values take defaults matching
// the paper's setup.
type Config struct {
	// Epoch is the DRM control period (default 5 s).
	Epoch time.Duration
	// SLAInterval is the IPS monitoring period (default 5 s).
	SLAInterval time.Duration
	// Modes selects the DRM-managed resources (default all).
	Modes ResourceModes
	// DisableDRM turns Phase II resource orchestration off (the
	// "JCTdefault" baseline of Figure 8(b)).
	DisableDRM bool
	// DisableIPS turns SLA enforcement off (the "RUBiS+MapReduce"
	// baseline of Figure 8(d)).
	DisableIPS bool
	// OverheadThreshold is Phase I's acceptable virtual JCT inflation
	// for jobs without deadlines (default 0.25).
	OverheadThreshold float64
	// Policies selects the controller implementations for every seam
	// (Phase I placement, DRM balancing, IPS arbitration); nil takes
	// policy.Default(), the paper's set. The Phase II slot/speculation
	// half of a policy set is consumed where the JobTrackers are built
	// (testbed.Options / hybridmr.ClusterSpec).
	Policies *policy.Set
	// TrainingSeed parameterizes the Phase I training simulations.
	TrainingSeed int64
	// EventSink, when non-nil, accumulates fired-event totals from the
	// Phase I training rigs (the nested simulations SimRunner spins up),
	// so experiments attribute every simulated event — including
	// profiler training — to the run that caused it.
	EventSink *atomic.Uint64
}

func (c Config) withDefaults() Config {
	if c.Epoch <= 0 {
		c.Epoch = 5 * time.Second
	}
	if c.SLAInterval <= 0 {
		c.SLAInterval = 5 * time.Second
	}
	if c.Modes == (ResourceModes{}) {
		c.Modes = AllModes()
	}
	if c.OverheadThreshold <= 0 {
		c.OverheadThreshold = 0.25
	}
	return c
}

// System is a running HybridMR deployment over a hybrid cluster: a
// native MapReduce partition, a virtual partition shared with interactive
// services, the Phase I placer, and the Phase II DRM and IPS.
type System struct {
	engine  *sim.Engine
	cluster *cluster.Cluster
	cfg     Config

	// NativeJT and VirtualJT are the two MapReduce partitions; either
	// (but not both) may be nil.
	NativeJT  *mapred.JobTracker
	VirtualJT *mapred.JobTracker

	// Placer decides Phase I placement; defaults to ProfilingPlacer.
	Placer Placer

	drm      *DRM
	ips      *IPS
	prof     *profiler.Profiler
	services []*workload.Service

	placements map[*mapred.Job]Placement

	tracer      *trace.Tracer
	auditLog    *audit.Log
	perf        *perfstat.Stats
	mPlacements *trace.Counter
}

// NewSystem wires a HybridMR instance. nativeJT or virtualJT may be nil
// when the corresponding partition does not exist (the Figure 9 design
// points). The profiler's training runner defaults to SimRunner with the
// cluster's hardware profile. The system, its Phase II controllers and
// the Phase I profiler record into the handle's sinks: Phase I
// placements (with the JCT estimates weighed), DRM cap grants and
// deferrals and IPS mitigations are audited, the IPS records
// per-service latency and SLA-violation series, and every controller is
// counted and timed. A nil handle records nothing.
func NewSystem(engine *sim.Engine, cl *cluster.Cluster, nativeJT, virtualJT *mapred.JobTracker, cfg Config, sinks *obs.Sinks) (*System, error) {
	if nativeJT == nil && virtualJT == nil {
		return nil, fmt.Errorf("core: NewSystem: need at least one partition")
	}
	cfg = cfg.withDefaults()
	o := obs.Of(sinks)
	s := &System{
		engine:      engine,
		cluster:     cl,
		cfg:         cfg,
		NativeJT:    nativeJT,
		VirtualJT:   virtualJT,
		placements:  make(map[*mapred.Job]Placement),
		tracer:      o.Tracer,
		auditLog:    o.Audit,
		perf:        o.Perf,
		mPlacements: o.Metrics.Counter("core.placements"),
	}
	s.prof = profiler.New(SimRunner(testbed.Options{
		Seed:          cfg.TrainingSeed,
		ClusterConfig: cl.Config(),
		Obs:           obs.Sinks{Events: cfg.EventSink},
	}), sinks)
	nativeNodes, virtualNodes := 0, 0
	if nativeJT != nil {
		nativeNodes = nativeJT.TrackerCount()
	}
	if virtualJT != nil {
		virtualNodes = virtualJT.TrackerCount()
	}
	pol := cfg.Policies
	if pol == nil {
		pol = policy.Default()
	}
	s.Placer = pol.Phase1.NewPlacer(policy.Phase1Env{
		Profiler:          s.prof,
		NativeNodes:       nativeNodes,
		VirtualNodes:      virtualNodes,
		OverheadThreshold: cfg.OverheadThreshold,
		Seed:              cfg.TrainingSeed,
	})
	if virtualJT != nil {
		if !cfg.DisableDRM {
			s.drm = NewDRM(engine, virtualJT, cfg.Modes, cfg.Epoch)
			s.drm.Policy = pol.DRM.Params()
			s.drm.tracer, s.drm.auditLog, s.drm.perf = o.Tracer, o.Audit, o.Perf
			s.drm.mAdjustments = o.Metrics.Counter("drm.cap_adjustments")
			s.drm.mDeferrals = o.Metrics.Counter("drm.deferrals")
		}
		if !cfg.DisableIPS {
			s.ips = NewIPS(engine, cl, virtualJT)
			s.ips.ApplyPolicy(pol.IPS.Params())
			s.ips.tracer, s.ips.reg, s.ips.auditLog = o.Tracer, o.Metrics, o.Audit
			s.ips.perf, s.ips.ts = o.Perf, o.TimeSeries
		}
	}
	return s, nil
}

// Engine returns the simulation engine.
func (s *System) Engine() *sim.Engine { return s.engine }

// Profiler exposes the Phase I profiler (e.g. for pre-training or
// accuracy experiments).
func (s *System) Profiler() *profiler.Profiler { return s.prof }

// DRM returns the Phase II resource manager, nil when disabled.
func (s *System) DRM() *DRM { return s.drm }

// IPS returns the Phase II interference prevention system, nil when
// disabled.
func (s *System) IPS() *IPS { return s.ips }

// DeployService places an interactive application on a VM of the virtual
// cluster and registers it for SLA monitoring. Per Algorithm 2,
// transactional workloads always land on the virtual partition.
func (s *System) DeployService(spec workload.ServiceSpec, vm *cluster.VM) (*workload.Service, error) {
	svc, err := workload.Deploy(spec, vm)
	if err != nil {
		return nil, err
	}
	s.services = append(s.services, svc)
	if s.ips != nil {
		s.ips.Watch(svc)
		s.ips.Start(s.cfg.SLAInterval)
	}
	return svc, nil
}

// Services returns the deployed interactive applications.
func (s *System) Services() []*workload.Service {
	out := make([]*workload.Service, len(s.services))
	copy(out, s.services)
	return out
}

// SubmitJob runs Phase I placement for a batch job and submits it to the
// chosen partition. desiredJCT of zero means no deadline. The returned
// placement says where it went.
func (s *System) SubmitJob(spec mapred.JobSpec, desiredJCT time.Duration, onDone func(*mapred.Job)) (*mapred.Job, Placement, error) {
	var placement Placement
	var reason string
	var candidates []audit.Candidate
	var err error
	s.perf.Enter("core.phase1")
	switch p := s.Placer.(type) {
	case ExplainedPlacer:
		placement, reason, candidates, err = p.PlaceExplained(spec, desiredJCT)
	case ReasonedPlacer:
		placement, reason, err = p.PlaceWithReason(spec, desiredJCT)
	default:
		placement, err = s.Placer.Place(spec, desiredJCT)
	}
	if s.perf != nil {
		s.perf.C.P1Placements++
		s.perf.C.P1CandidatesEvaluated += int64(len(candidates))
	}
	s.perf.Exit()
	if err != nil {
		return nil, 0, err
	}
	// Degrade gracefully when the chosen partition does not exist.
	degraded := ""
	if placement == PlacedNative && s.NativeJT == nil {
		placement = PlacedVirtual
		degraded = "; native partition missing, degraded to virtual"
	}
	if placement == PlacedVirtual && s.VirtualJT == nil {
		placement = PlacedNative
		degraded = "; virtual partition missing, degraded to native"
	}
	// Correlated-failure awareness: placing into a partition whose whole
	// failure domain is down (rack crash, power loss, network partition)
	// would park the job until the domain recovers. When the chosen side
	// has no tracker able to accept work and the other side does, flip.
	if s.NativeJT != nil && s.VirtualJT != nil {
		switch {
		case placement == PlacedNative && !s.NativeJT.AnyLiveTracker() && s.VirtualJT.AnyLiveTracker():
			placement = PlacedVirtual
			degraded += "; native partition has no live trackers (failure domain down), flipped to virtual"
		case placement == PlacedVirtual && !s.VirtualJT.AnyLiveTracker() && s.NativeJT.AnyLiveTracker():
			placement = PlacedNative
			degraded += "; virtual partition has no live trackers (failure domain down), flipped to native"
		}
	}
	jt := s.VirtualJT
	env := profiler.Virtual
	if placement == PlacedNative {
		jt = s.NativeJT
		env = profiler.Native
	}
	nodes := jt.TrackerCount()
	job, err := jt.Submit(spec, func(j *mapred.Job) {
		// Online profiling: fold the production run back into the Phase I
		// database so future placement decisions use real history.
		s.prof.Observe(spec, env, nodes, profiler.RunResult{
			JCTSec:    j.JCT().Seconds(),
			MapSec:    j.MapPhase().Seconds(),
			ReduceSec: j.ReducePhase().Seconds(),
		})
		if onDone != nil {
			onDone(j)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	s.placements[job] = placement
	s.mPlacements.Inc()
	if reason == "" {
		reason = "placer gave no reason"
	}
	if s.tracer != nil {
		s.tracer.Instant("phase1", "placement", spec.Name,
			trace.S("placement", placement.String()),
			trace.S("reason", reason),
			trace.F("desired_jct_sec", desiredJCT.Seconds()))
	}
	s.auditLog.Add("phase1", "place",
		fmt.Sprintf("%s-%d", spec.Name, job.ID),
		placement.String(), reason+degraded, candidates...)
	if placement == PlacedVirtual && s.drm != nil {
		s.drm.Start()
	}
	return job, placement, nil
}

// PlacementOf reports where a job was placed.
func (s *System) PlacementOf(job *mapred.Job) (Placement, bool) {
	p, ok := s.placements[job]
	return p, ok
}

// Stop halts the Phase II control loops.
func (s *System) Stop() {
	if s.drm != nil {
		s.drm.Stop()
	}
	if s.ips != nil {
		s.ips.Stop()
	}
	if s.NativeJT != nil {
		s.NativeJT.Close()
	}
	if s.VirtualJT != nil {
		s.VirtualJT.Close()
	}
}
