package core

import (
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/interference"
	"repro/internal/mapred"
	"repro/internal/perfstat"
	"repro/internal/policy"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/timeseries"
	"repro/internal/trace"
	"repro/internal/workload"
)

// IPSAction records one mitigation the Arbiter took, for reporting and
// the experiment timelines.
type IPSAction struct {
	// At is the simulation time of the action.
	At time.Duration
	// Kind is "relocate", "throttle", "pause", "resume" or "migrate".
	Kind string
	// Service is the SLA-violating application that triggered it.
	Service string
	// Target names the affected task or VM.
	Target string
}

// IPS is the Interference Prevention System of the Phase II scheduler:
// an online monitor of interactive applications that, on SLA violation,
// invokes its Arbiter (Algorithm 3) to relocate, throttle or pause the
// responsible map/reduce work.
type IPS struct {
	engine  *sim.Engine
	cluster *cluster.Cluster
	jt      *mapred.JobTracker
	ticker  *sim.Ticker

	services    []*ipsService
	paused      map[*cluster.VM]string // paused VM -> service that caused it
	blacklisted map[*mapred.TaskTracker]string
	backoff     map[*cluster.PM]*blacklistBackoff
	actions     []IPSAction

	tracer   *trace.Tracer
	reg      *trace.Registry
	auditLog *audit.Log
	perf     *perfstat.Stats
	ts       *timeseries.Collector

	// PauseStreak is the number of consecutive violating epochs before
	// the Arbiter escalates from relocation/throttling to pausing a
	// batch VM (default 3).
	PauseStreak int
	// MaxRelocationsPerEpoch bounds evictions per service per epoch
	// (default 2).
	MaxRelocationsPerEpoch int
	// RelocateBelowProgress relocates only attempts below this progress
	// (default 0.6): restarting nearly-finished work wastes it, so those
	// are throttled instead. Zero never relocates (the throttle-first
	// policy).
	RelocateBelowProgress float64
	// ThrottleFactor scales a throttled interferer's bottleneck cap
	// (default 0.5).
	ThrottleFactor float64
}

type ipsService struct {
	svc    *workload.Service
	models *interference.Models
	streak int
}

// NewIPS creates an IPS over the virtual cluster's JobTracker. Call
// Watch for each deployed service, then Start.
func NewIPS(engine *sim.Engine, cl *cluster.Cluster, jt *mapred.JobTracker) *IPS {
	return &IPS{
		engine:                 engine,
		cluster:                cl,
		jt:                     jt,
		paused:                 make(map[*cluster.VM]string),
		blacklisted:            make(map[*mapred.TaskTracker]string),
		backoff:                make(map[*cluster.PM]*blacklistBackoff),
		PauseStreak:            3,
		MaxRelocationsPerEpoch: 2,
		RelocateBelowProgress:  0.6,
		ThrottleFactor:         0.5,
	}
}

// ApplyPolicy installs an arbitration policy's knobs.
func (p *IPS) ApplyPolicy(params policy.IPSParams) {
	p.PauseStreak = params.PauseStreak
	p.MaxRelocationsPerEpoch = params.MaxRelocationsPerEpoch
	p.RelocateBelowProgress = params.RelocateBelowProgress
	p.ThrottleFactor = params.ThrottleFactor
}

// Watch registers an interactive service for SLA monitoring.
func (p *IPS) Watch(svc *workload.Service) {
	p.services = append(p.services, &ipsService{svc: svc, models: interference.NewModels()})
}

// Start begins the monitoring loop at the given interval (default 5 s).
// The loop runs until Stop; experiments with services drive the engine
// with RunUntil horizons.
func (p *IPS) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	if p.ticker != nil && !p.ticker.Stopped() {
		return
	}
	p.ticker = sim.NewTicker(p.engine, interval, func(now time.Duration) { p.tick(now) })
}

// Stop halts monitoring.
func (p *IPS) Stop() {
	if p.ticker != nil {
		p.ticker.Stop()
	}
}

// Actions returns the mitigation log.
func (p *IPS) Actions() []IPSAction {
	out := make([]IPSAction, len(p.actions))
	copy(out, p.actions)
	return out
}

func (p *IPS) log(kind, service, target string) {
	p.actions = append(p.actions, IPSAction{
		At: p.engine.Now(), Kind: kind, Service: service, Target: target,
	})
	p.reg.Counter("ips.actions." + kind).Inc()
	if p.tracer != nil {
		p.tracer.Instant("ips", "ips", kind,
			trace.S("service", service),
			trace.S("target", target))
	}
	reason := "SLA violation by " + service
	switch kind {
	case "resume", "unblacklist":
		reason = "host services comfortably under SLA again (" + service + ")"
	}
	p.auditLog.Add("ips", kind, target, kind, reason)
}

// tick is one monitoring epoch.
func (p *IPS) tick(time.Duration) {
	p.perf.Enter("core.ips")
	defer p.perf.Exit()
	if p.perf != nil {
		p.perf.C.IPSTicks++
	}
	for _, st := range p.services {
		if st.svc.Node().Machine() == nil {
			// The service's VM was destroyed by a fault; there is nothing
			// left to observe or protect.
			continue
		}
		p.observe(st)
		if st.svc.SLAViolated() {
			st.streak++
			p.ts.Add("service.sla_violations", st.svc.Spec().Name, p.engine.Now(), 1)
			p.arbitrate(st)
		} else {
			st.streak = 0
		}
	}
	p.maybeResume()
}

// observe feeds the service's interference models with the current batch
// pressure on its host.
func (p *IPS) observe(st *ipsService) {
	pm := st.svc.Node().Machine()
	var cpu, mem, io float64
	running := p.jt.RunningAttempts()
	if p.perf != nil {
		p.perf.C.IPSAttemptsScanned += int64(len(running))
	}
	for _, a := range running {
		if a.Node().Machine() != pm {
			continue
		}
		alloc := a.Consumer().Alloc()
		cpu += alloc.Get(resource.CPU)
		mem += a.Consumer().Demand.Get(resource.Memory)
		io += alloc.Get(resource.DiskIO) + alloc.Get(resource.NetIO)
	}
	lat := st.svc.LatencyMs()
	p.ts.Observe("service.latency_ms", st.svc.Spec().Name, p.engine.Now(), lat)
	st.models.CPU.Observe(cpu, lat)
	st.models.Memory.Observe(mem, lat)
	st.models.IO.Observe(io, lat)
}

// arbitrate implements Algorithm 3: rank the collocated map/reduce tasks
// by estimated interference with the violating service, and relocate them
// to the best-fitting VM elsewhere (BestFit bin-packing over candidate
// trackers, least-interfering placement first in the Min-Min spirit).
// When no relocation target exists the interferer is throttled; repeated
// violations escalate to pausing the most intrusive batch VM on the host.
func (p *IPS) arbitrate(st *ipsService) {
	svcPM := st.svc.Node().Machine()
	bottleneck, _ := st.svc.Bottleneck()

	// TASK_LIST_interference: running attempts sharing the service's PM.
	var interferers []*mapred.Attempt
	for _, a := range p.jt.RunningAttempts() {
		if a.Node().Machine() == svcPM {
			interferers = append(interferers, a)
		}
	}
	// Stop new batch work from landing on this host until the service
	// recovers. Repeat offenders back off exponentially, so a host whose
	// tenant keeps getting re-violated converges to staying clear.
	bo, ok := p.backoff[svcPM]
	if !ok {
		bo = &blacklistBackoff{}
		p.backoff[svcPM] = bo
	}
	blacklistedNow := false
	for _, tr := range p.jt.Trackers() {
		if tr.Compute.Machine() == svcPM && !tr.Disabled() {
			tr.SetDisabled(true)
			p.blacklisted[tr] = st.svc.Spec().Name
			blacklistedNow = true
			p.log("blacklist", st.svc.Spec().Name, tr.Compute.Name())
		}
	}
	if blacklistedNow {
		bo.count++
		hold := 30 * time.Second << uint(minInt(bo.count-1, 5))
		bo.until = p.engine.Now() + hold
	}

	if len(interferers) == 0 {
		// The violation is pure client overload: there is no batch work
		// to mitigate, and punishing the rest of the cluster would only
		// hurt throughput.
		return
	}
	sort.SliceStable(interferers, func(i, j int) bool {
		return p.interferenceOf(interferers[i], bottleneck) > p.interferenceOf(interferers[j], bottleneck)
	})

	relocated := 0
	for _, a := range interferers {
		if relocated >= p.MaxRelocationsPerEpoch {
			break
		}
		// Relocation restarts the attempt from scratch; nearly-finished
		// tasks are throttled instead so their work is not wasted.
		if a.Progress() < p.RelocateBelowProgress {
			if dst := p.bestFitTracker(a, svcPM); dst != nil {
				if err := p.jt.Relocate(a, dst); err == nil {
					relocated++
					p.log("relocate", st.svc.Spec().Name, a.Consumer().Name)
					continue
				}
			}
		}
		// No placement found: throttle the interferer's bottleneck share.
		c := a.Consumer()
		cur := c.Cap.Get(bottleneck)
		if cur <= 0 {
			cur = c.Alloc().Get(bottleneck)
		}
		if cur > 0 {
			c.SetCap(c.Cap.Set(bottleneck, cur*p.ThrottleFactor))
			p.log("throttle", st.svc.Spec().Name, c.Name)
		}
	}

	if st.streak >= p.PauseStreak {
		p.pauseWorstBatchVM(st, svcPM, bottleneck)
	}
	// Final escalation: if pausing has not cleared the violation after
	// twice the pause threshold, live-migrate a pure-batch VM off the
	// host entirely (the paper's strongest mitigation).
	if st.streak >= 2*p.PauseStreak {
		p.migrateBatchVM(st, svcPM)
	}
}

// migrateBatchVM moves one batch VM from the violating host to the
// service-free PM with the most free memory. Paused VMs are preferred
// (they are already not running and their tasks resume elsewhere).
func (p *IPS) migrateBatchVM(st *ipsService, pm *cluster.PM) {
	var candidate *cluster.VM
	for _, vm := range pm.VMs() {
		if p.hostsService(vm) {
			continue
		}
		if candidate == nil || vm.State() == cluster.VMPaused {
			candidate = vm
		}
	}
	if candidate == nil {
		return
	}
	var dst *cluster.PM
	var bestFree float64
	for _, other := range p.cluster.PMs() {
		if other == pm || other.Off() || p.hostsAnyService(other) {
			continue
		}
		var committed float64
		for _, vm := range other.VMs() {
			committed += vm.MemoryMB()
		}
		free := other.Capacity().Get(resource.Memory) - committed
		if free < candidate.MemoryMB() {
			continue
		}
		if dst == nil || free > bestFree {
			dst, bestFree = other, free
		}
	}
	if dst == nil {
		return
	}
	if candidate.State() == cluster.VMPaused {
		if err := candidate.Resume(); err != nil {
			return
		}
		delete(p.paused, candidate)
	}
	vmName := candidate.Name()
	if err := p.cluster.Migrate(candidate, dst, nil); err == nil {
		st.streak = 0 // give the migration time to land
		p.log("migrate", st.svc.Spec().Name, vmName)
	}
}

// interferenceOf estimates how much an attempt contributes to pressure in
// the given dimension.
func (p *IPS) interferenceOf(a *mapred.Attempt, kind resource.Kind) float64 {
	c := a.Consumer()
	v := c.Alloc().Get(kind)
	if v == 0 {
		v = c.Demand.Get(kind) * 0.1
	}
	return v
}

// bestFitTracker picks the relocation destination by BestFit bin-packing:
// among trackers on other PMs with a free slot of the right kind and no
// SLA-violating service, choose the one whose remaining capacity after
// placement is smallest but sufficient.
func (p *IPS) bestFitTracker(a *mapred.Attempt, avoid *cluster.PM) *mapred.TaskTracker {
	demand := a.Consumer().Demand
	var best *mapred.TaskTracker
	bestLeft := 0.0
	for _, tr := range p.jt.Trackers() {
		if tr.Compute.Machine() == avoid {
			continue
		}
		if tr.FreeSlots(a.Task.Kind) <= 0 {
			continue
		}
		// Never evict interference onto a machine hosting any watched
		// service — that just moves the problem.
		if p.hostsAnyService(tr.Compute.Machine()) {
			continue
		}
		free := p.freeCapacity(tr.Compute)
		left := 0.0
		fits := true
		for _, k := range [...]resource.Kind{resource.CPU, resource.DiskIO, resource.NetIO} {
			d := demand.Get(k)
			f := free.Get(k)
			if d > f {
				fits = false
				break
			}
			left += f - d
		}
		if !fits {
			continue
		}
		if best == nil || left < bestLeft {
			best, bestLeft = tr, left
		}
	}
	if best == nil {
		// Fall back to the emptiest service-free tracker with a free
		// slot, even if the task will contend there: re-execution beats
		// SLA violation.
		for _, tr := range p.jt.Trackers() {
			if tr.Compute.Machine() == avoid || tr.FreeSlots(a.Task.Kind) <= 0 {
				continue
			}
			if p.hostsAnyService(tr.Compute.Machine()) {
				continue
			}
			if best == nil || len(tr.Compute.Consumers()) < len(best.Compute.Consumers()) {
				best = tr
			}
		}
	}
	return best
}

func (p *IPS) hostsViolatingService(pm *cluster.PM) bool {
	for _, st := range p.services {
		if st.svc.Node().Machine() == pm && st.svc.SLAViolated() {
			return true
		}
	}
	return false
}

func (p *IPS) hostsAnyService(pm *cluster.PM) bool {
	for _, st := range p.services {
		if st.svc.Node().Machine() == pm {
			return true
		}
	}
	return false
}

// freeCapacity estimates a node's unclaimed useful capacity.
func (p *IPS) freeCapacity(n cluster.Node) resource.Vector {
	free := n.UsefulCapacity()
	for _, c := range n.Consumers() {
		free = free.Sub(c.Alloc())
	}
	return free.Max(resource.Vector{})
}

// pauseWorstBatchVM suspends the pure-batch VM exerting the most pressure
// on the violating service's host. Paused VMs resume once the host's
// services are healthy again.
func (p *IPS) pauseWorstBatchVM(st *ipsService, pm *cluster.PM, kind resource.Kind) {
	var worst *cluster.VM
	worstLoad := 0.0
	for _, vm := range pm.VMs() {
		if vm.State() != cluster.VMRunning || p.hostsService(vm) {
			continue
		}
		load := 0.0
		for _, c := range vm.Consumers() {
			load += c.Alloc().Get(kind)
		}
		if len(vm.Consumers()) > 0 && (worst == nil || load > worstLoad) {
			worst, worstLoad = vm, load
		}
	}
	if worst == nil {
		return
	}
	if err := worst.Pause(); err == nil {
		p.paused[worst] = st.svc.Spec().Name
		p.log("pause", st.svc.Spec().Name, worst.Name())
	}
}

func (p *IPS) hostsService(vm *cluster.VM) bool {
	for _, st := range p.services {
		if st.svc.Node() == vm {
			return true
		}
	}
	return false
}

// maybeResume resumes paused VMs and re-enables blacklisted trackers
// whose host's services are comfortably healthy again.
func (p *IPS) maybeResume() {
	// Iterate in name order: resuming a VM (or re-enabling a tracker)
	// triggers reschedules, so map-iteration order would perturb the
	// event sequence across runs.
	paused := make([]*cluster.VM, 0, len(p.paused))
	for vm := range p.paused {
		paused = append(paused, vm)
	}
	sort.Slice(paused, func(i, j int) bool { return paused[i].Name() < paused[j].Name() })
	for _, vm := range paused {
		svcName := p.paused[vm]
		pm := vm.Machine()
		if pm == nil {
			delete(p.paused, vm) // destroyed while paused; nothing to resume
			continue
		}
		if bo := p.backoff[pm]; bo != nil && p.engine.Now() < bo.until {
			continue
		}
		if !p.hostComfortable(pm) {
			continue
		}
		if err := vm.Resume(); err == nil {
			delete(p.paused, vm)
			p.log("resume", svcName, vm.Name())
		}
	}
	blacklisted := make([]*mapred.TaskTracker, 0, len(p.blacklisted))
	for tr := range p.blacklisted {
		blacklisted = append(blacklisted, tr)
	}
	sort.Slice(blacklisted, func(i, j int) bool {
		return blacklisted[i].Compute.Name() < blacklisted[j].Compute.Name()
	})
	for _, tr := range blacklisted {
		svcName := p.blacklisted[tr]
		pm := tr.Compute.Machine()
		if bo := p.backoff[pm]; bo != nil && p.engine.Now() < bo.until {
			continue
		}
		if !p.hostComfortable(pm) {
			continue
		}
		tr.SetDisabled(false)
		delete(p.blacklisted, tr)
		p.log("unblacklist", svcName, tr.Compute.Name())
	}
}

type blacklistBackoff struct {
	count int
	until time.Duration
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// hostComfortable reports whether every watched service on the machine
// has real headroom below its SLA (not merely a hair under it).
func (p *IPS) hostComfortable(pm *cluster.PM) bool {
	for _, st := range p.services {
		if st.svc.Node().Machine() != pm {
			continue
		}
		if st.svc.LatencyMs() > st.svc.Spec().SLAMs*0.6 {
			return false
		}
	}
	return true
}
