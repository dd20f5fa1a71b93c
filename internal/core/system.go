package core

import (
	"fmt"
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

// The Phase II control periods, as on the paper's testbed.
const (
	// drmEpoch is the DRM control period.
	drmEpoch = 5 * time.Second
	// slaInterval is the IPS monitoring period.
	slaInterval = 5 * time.Second
)

// Config tunes the HybridMR system. Zero values take defaults matching
// the paper's setup.
type Config struct {
	// DisableDRM turns Phase II resource orchestration off (the
	// "JCTdefault" baseline of Figure 8(b)).
	DisableDRM bool
	// DisableIPS turns SLA enforcement off (the "RUBiS+MapReduce"
	// baseline of Figure 8(d)).
	DisableIPS bool
	// Policies is the one selection of the controller implementations
	// and their knobs; nil takes policy.Default(), the paper's set. The
	// System consumes the Phase I, DRM and IPS seams; the Phase II
	// slot/speculation seam is consumed where the JobTrackers are built
	// (policy.Set.Phase2Setup, which the facade's NewHybridCluster calls
	// for both partitions with this same set).
	Policies *policy.Set
	// TrainingSeed parameterizes the Phase I training simulations and
	// seeds randomized placers (random-p1).
	TrainingSeed int64
}

// System is a running HybridMR deployment over a hybrid cluster: a
// native MapReduce partition, a virtual partition shared with interactive
// services, the Phase I placer, and the Phase II DRM and IPS.
type System struct {
	engine *sim.Engine

	// NativeJT and VirtualJT are the two MapReduce partitions; either
	// (but not both) may be nil.
	NativeJT  *mapred.JobTracker
	VirtualJT *mapred.JobTracker

	// placer decides Phase I placement, built by Config.Policies' p1
	// row.
	placer Placer

	drm      *DRM
	ips      *IPS
	prof     *profiler.Profiler
	services []*workload.Service

	tracer      *trace.Tracer
	auditLog    *audit.Log
	perf        *perfstat.Stats
	mPlacements *trace.Counter
}

// NewSystem wires a HybridMR instance. nativeJT or virtualJT may be nil
// when the corresponding partition does not exist (the Figure 9 design
// points). The profiler's training runner is SimRunner on the default
// hardware, which every cluster in the program runs on. The system, its
// Phase II controllers and the Phase I profiler record into the
// handle's sinks: Phase I placements (with the JCT estimates weighed),
// DRM cap grants and deferrals and IPS mitigations are audited, the IPS
// records per-service latency and SLA-violation series, and every
// controller is counted and timed. The Phase I training rigs (the nested
// simulations SimRunner spins up) record into no sink; their events
// still count in sim.ProcessEvents. A nil handle records nothing.
func NewSystem(engine *sim.Engine, cl *cluster.Cluster, nativeJT, virtualJT *mapred.JobTracker, cfg Config, sinks *obs.Sinks) (*System, error) {
	if nativeJT == nil && virtualJT == nil {
		return nil, fmt.Errorf("core: NewSystem: need at least one partition")
	}
	o := obs.Of(sinks)
	s := &System{
		engine:      engine,
		NativeJT:    nativeJT,
		VirtualJT:   virtualJT,
		tracer:      o.Tracer,
		auditLog:    o.Audit,
		perf:        o.Perf,
		mPlacements: o.Metrics.Counter("core.placements"),
	}
	s.prof = profiler.New(SimRunner(testbed.Options{Seed: cfg.TrainingSeed}), sinks)
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
	s.placer = pol.NewPlacer(policy.Phase1Env{
		Profiler:     s.prof,
		NativeNodes:  nativeNodes,
		VirtualNodes: virtualNodes,
		Seed:         cfg.TrainingSeed,
	})
	if virtualJT != nil {
		if !cfg.DisableDRM {
			s.drm = NewDRM(virtualJT, AllModes(), pol, sinks)
		}
		if !cfg.DisableIPS {
			s.ips = NewIPS(cl, virtualJT, pol, sinks)
		}
	}
	return s, nil
}

// Profiler exposes the Phase I profiler (e.g. for pre-training or
// accuracy experiments).
func (s *System) Profiler() *profiler.Profiler { return s.prof }

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
		s.ips.Start()
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
	s.perf.Enter("core.phase1")
	placement, reason, candidates, err := s.placer.Place(spec, desiredJCT)
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
	s.mPlacements.Inc()
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
