package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/interference"
	"repro/internal/mapred"
	"repro/internal/perfstat"
	"repro/internal/policy"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ResourceModes selects which resource dimensions the DRM manages — the
// CPU / Memory / I-O / all-three legend of Figures 8(b) and 8(c).
type ResourceModes struct {
	CPU    bool
	Memory bool
	IO     bool
}

// AllModes manages CPU, memory and I/O together.
func AllModes() ResourceModes { return ResourceModes{CPU: true, Memory: true, IO: true} }

// String lists the managed dimensions.
func (m ResourceModes) String() string {
	switch {
	case m.CPU && m.Memory && m.IO:
		return "cpu+mem+io"
	case m.CPU && !m.Memory && !m.IO:
		return "cpu"
	case !m.CPU && m.Memory && !m.IO:
		return "mem"
	case !m.CPU && !m.Memory && m.IO:
		return "io"
	default:
		return fmt.Sprintf("modes{cpu:%v mem:%v io:%v}", m.CPU, m.Memory, m.IO)
	}
}

// DRM is the Dynamic Resource Manager of the Phase II scheduler. Its
// Local Resource Managers profile each node's running attempts (Resource
// Profiler) and fit run-time estimation models (Estimator); its Global
// Resource Manager detects resource-deficit and resource-hogging tasks
// (Contention Detector) and re-balances per-task resource caps across the
// node (Performance Balancer), replacing the static Hadoop slot
// containers that the default configuration imposes.
type DRM struct {
	jt     *mapred.JobTracker
	modes  ResourceModes
	epoch  time.Duration
	engine *sim.Engine
	ticker *sim.Ticker
	// estimators fit per-job/kind speed-versus-allocation models; the
	// Performance Balancer ranks cap grants by their predicted benefit.
	estimators map[estimatorKey]*interference.Predictor
	// deferred tracks attempts swapped out by the memory balancer, until
	// they resume or end (see pruneDeferred). It is keyed by attempt, not
	// consumer: the JobTracker recycles an ended attempt's consumer.
	deferred map[*mapred.Attempt]bool
	// Policy holds the Performance Balancer's knobs: the paper's
	// deferral discipline by default (the paper-drm row), the
	// proportional static split (the deferral ablation's alternative)
	// when the static-split row is selected.
	Policy policy.DRMParams
	// Adjustments counts cap changes, for reporting.
	Adjustments int

	// Scratch reused by every node of every epoch, so a steady-state
	// tick allocates nothing.
	deficits []rateDeficit
	ordered  []*mapred.Attempt

	tracer       *trace.Tracer
	auditLog     *audit.Log
	perf         *perfstat.Stats
	mAdjustments *trace.Counter
	mDeferrals   *trace.Counter
}

// estimatorKey names one LRM Estimator: a job name and task kind.
type estimatorKey struct {
	job  string
	kind mapred.TaskKind
}

// NewDRM attaches a Dynamic Resource Manager to a (virtual-cluster)
// JobTracker. Call Start to begin the epoch loop.
func NewDRM(engine *sim.Engine, jt *mapred.JobTracker, modes ResourceModes, epoch time.Duration) *DRM {
	if epoch <= 0 {
		epoch = 5 * time.Second
	}
	return &DRM{
		jt:         jt,
		modes:      modes,
		epoch:      epoch,
		engine:     engine,
		estimators: make(map[estimatorKey]*interference.Predictor),
		deferred:   make(map[*mapred.Attempt]bool),
		Policy:     policy.Default().DRM,
	}
}

// Start begins the epoch loop. The loop parks itself whenever the job
// queue drains and must be re-armed by the next Submit (see
// System.SubmitJob) — this keeps event queues finite.
func (d *DRM) Start() {
	if d.ticker != nil && !d.ticker.Stopped() {
		return
	}
	d.ticker = sim.NewTicker(d.engine, d.epoch, func(time.Duration) {
		if len(d.jt.Jobs()) == 0 {
			d.ticker.Stop()
			return
		}
		d.tick()
	})
}

// Stop halts the epoch loop.
func (d *DRM) Stop() {
	if d.ticker != nil {
		d.ticker.Stop()
	}
}

// tick runs one DRM epoch: profile, detect contention, re-balance. It
// walks the JobTracker's maintained per-node attempt buckets — already
// grouped by compute node in name order, attempts name-ordered within
// each — instead of rebuilding that exact structure from a full attempt
// sort every epoch (the O(n^1.97) the scale sweep measured before the
// index refactor). The visit order, and therefore every cap adjustment
// and rescheduled event, is unchanged. Every running attempt is still
// observed each epoch: the Estimators' sliding windows, the IPS's cap
// interplay and the audit trail all depend on per-attempt observation,
// so the delta structure is the grouping, not a skip of "clean" nodes.
func (d *DRM) tick() {
	d.perf.Enter("core.drm")
	defer d.perf.Exit()
	if d.perf != nil {
		d.perf.C.DRMSweeps++
		d.perf.C.DRMAttemptsObserved += int64(d.jt.RunningCount())
	}
	if d.modes.Memory {
		d.pruneDeferred()
	}
	d.jt.EachNodeAttempts(func(node cluster.Node, attempts []*mapred.Attempt) {
		if d.perf != nil {
			d.perf.C.DRMNodesScanned++
		}
		d.observe(attempts)
		cap := node.UsefulCapacity()
		if d.modes.CPU {
			d.balanceRate(node, attempts, resource.CPU, cap.Get(resource.CPU))
		}
		if d.modes.IO {
			d.balanceRate(node, attempts, resource.DiskIO, cap.Get(resource.DiskIO))
			d.balanceRate(node, attempts, resource.NetIO, cap.Get(resource.NetIO))
		}
		if d.modes.Memory {
			d.balanceMemory(attempts, cap.Get(resource.Memory))
		}
	})
}

// observe feeds the LRM Estimators: per job and task kind, the attempt's
// bottleneck allocation fraction against its achieved speed.
func (d *DRM) observe(attempts []*mapred.Attempt) {
	for _, a := range attempts {
		c := a.Consumer()
		frac := allocFraction(c)
		key := estimatorKey{a.Task.Job.Spec.Name, a.Task.Kind}
		p, ok := d.estimators[key]
		if !ok {
			p = interference.NewPredictor(interference.LinearFamily)
			d.estimators[key] = p
		}
		p.Observe(frac, c.Speed())
	}
}

// EstimatedSpeedAt predicts a job/kind's task speed at a given bottleneck
// allocation fraction, once the Estimator has data.
func (d *DRM) EstimatedSpeedAt(job string, kind mapred.TaskKind, frac float64) (float64, bool) {
	p, ok := d.estimators[estimatorKey{job, kind}]
	if !ok {
		return 0, false
	}
	return p.Predict(frac)
}

// The hog trim, which no registered DRM policy varies: a rate cap above
// demand×hogTrimAbove is trimmed to demand×hogTrimTo, so the contention
// detector's headroom means something next epoch.
const (
	hogTrimAbove = 1.5
	hogTrimTo    = 1.2
)

// balanceRate re-divides one rate dimension's capacity: tasks whose caps
// pin them below their demand (resource-deficit, per the Contention
// Detector) get their caps raised into the measured headroom, most
// beneficial first; tasks holding caps far above their demand
// (resource-hogging containers) are trimmed so the headroom is real.
func (d *DRM) balanceRate(node cluster.Node, attempts []*mapred.Attempt, kind resource.Kind, capacity float64) {
	if capacity <= 0 {
		return
	}
	used := 0.0
	deficits := d.deficits[:0]
	for _, a := range attempts {
		c := a.Consumer()
		if d.deferred[a] {
			// Swapped out by the memory balancer; do not grant rate
			// resources it cannot use.
			continue
		}
		used += c.Alloc().Get(kind)
		demand := c.Demand.Get(kind)
		capV := c.Cap.Get(kind)
		if capV > 0 && capV > demand*hogTrimAbove {
			// Hogging container: trim so the detector's headroom means
			// something next epoch.
			d.setCap(c, kind, demand*hogTrimTo)
			capV = demand * hogTrimTo
		}
		if capV > 0 && capV < demand {
			// Benefit estimate: time saved if the cap were lifted to
			// demand, assuming the Leontief speed model the Estimator
			// confirms online.
			rem := c.Remaining()
			speed := c.Speed()
			if rem <= 0 || speed <= 0 {
				rem, speed = 1, 0.1
			}
			speedAtDemand := speedWithCap(c, kind, demand)
			benefit := rem/speed - rem/maxf(speedAtDemand, 1e-9)
			deficits = append(deficits, rateDeficit{a: a, demand: demand, cap: capV, benefit: benefit})
		}
	}
	d.deficits = deficits
	headroom := capacity - used
	if headroom <= 0 || len(deficits) == 0 {
		return
	}
	// slices.SortFunc runs the same pdqsort as sort.Slice, making the
	// same comparisons, so equal benefits keep the same order.
	slices.SortFunc(deficits, byBenefitDesc)
	available := headroom
	granted := 0
	var cands []audit.Candidate
	for _, df := range deficits {
		grant := 0.0
		if headroom > 0 {
			grant = df.demand - df.cap
			if grant > headroom {
				grant = headroom
			}
			d.setCap(df.a.Consumer(), kind, df.cap+grant)
			headroom -= grant
			granted++
		}
		if d.auditLog != nil {
			cands = append(cands, audit.Candidate{
				Name:   df.a.Consumer().Name,
				Score:  df.benefit,
				Chosen: grant > 0,
				Note:   "predicted benefit (s) of lifting cap to demand",
			})
		}
	}
	if d.auditLog != nil {
		d.auditLog.Add("drm", "cap-grant",
			fmt.Sprintf("%s/%s", node.Name(), kind),
			fmt.Sprintf("raised %d of %d deficit cap(s)", granted, len(deficits)),
			fmt.Sprintf("%.3g %s headroom, most beneficial first", available, kind),
			cands...)
	}
}

// balanceMemory right-sizes memory within each VM container. When the
// resident demands fit, caps rise to demand (no paging). When they do
// not, the Estimator's verdict is that thrashing everyone is worse than
// running fewer tasks at speed, so the least-progressed attempts are
// deferred (swapped out: near-zero CPU and memory caps) until the
// container drains; deferred attempts resume as space frees up.
func (d *DRM) balanceMemory(attempts []*mapred.Attempt, capacityMB float64) {
	if capacityMB <= 0 {
		return
	}
	if !d.Policy.Deferral {
		// Static-split policy: share the paging pain proportionally.
		var total float64
		for _, a := range attempts {
			total += a.Consumer().Demand.Get(resource.Memory)
		}
		if total <= 0 {
			return
		}
		scale := 1.0
		if total > capacityMB {
			scale = capacityMB / total
		}
		for _, a := range attempts {
			c := a.Consumer()
			want := c.Demand.Get(resource.Memory) * scale
			if abs64(c.Cap.Get(resource.Memory)-want) > 1 {
				d.setCap(c, resource.Memory, want)
			}
		}
		return
	}
	// Consider the most-progressed attempts first: they keep running,
	// the tail gets deferred.
	ordered := append(d.ordered[:0], attempts...)
	d.ordered = ordered
	slices.SortFunc(ordered, byProgressDesc)

	budget := capacityMB
	for _, a := range ordered {
		c := a.Consumer()
		want := c.Demand.Get(resource.Memory)
		if want <= 0 {
			continue
		}
		if want <= budget {
			// Fits: release any deferral and grant full residency.
			if d.deferred[a] {
				delete(d.deferred, a)
				d.setCap(c, resource.CPU, c.Demand.Get(resource.CPU))
				d.auditLog.Add("drm", "resume-deferred", c.Name, "restore cpu+mem caps",
					fmt.Sprintf("%.0f MB of container memory freed up", budget))
			}
			budget -= want
			if abs64(c.Cap.Get(resource.Memory)-want) > 1 {
				d.setCap(c, resource.Memory, want)
			}
			continue
		}
		// Does not fit: defer (swap out) rather than thrash the whole
		// container.
		if !d.deferred[a] {
			d.deferred[a] = true
			d.setCap(c, resource.Memory, 1)
			d.setCap(c, resource.CPU, 0.01)
			d.mDeferrals.Inc()
			if d.tracer != nil {
				d.tracer.Instant("drm", "drm", "defer",
					trace.S("task", c.Name),
					trace.F("demand_mb", want))
			}
			d.auditLog.Add("drm", "defer", c.Name, "swap out (least progressed first)",
				fmt.Sprintf("resident demand %.0f MB exceeds the %.0f MB left in the container; thrashing every task is worse", want, budget))
		}
	}
}

// pruneDeferred drops the deferral entries of attempts whose consumer
// no longer runs. A deferred attempt that is killed, relocated or loses
// its race never resumes, so its entry would pin the attempt for the
// rest of the run. Every decision looks up running attempts only, so
// none changes.
func (d *DRM) pruneDeferred() {
	for a := range d.deferred {
		if c := a.Consumer(); c == nil || !c.Running() {
			delete(d.deferred, a)
		}
	}
}

// rateDeficit is one resource-deficit attempt in a balanceRate pass.
type rateDeficit struct {
	a       *mapred.Attempt
	demand  float64
	cap     float64
	benefit float64
}

// byBenefitDesc orders deficits most beneficial first.
func byBenefitDesc(a, b rateDeficit) int {
	switch {
	case a.benefit > b.benefit:
		return -1
	case a.benefit < b.benefit:
		return 1
	}
	return 0
}

// byProgressDesc orders attempts most progressed first. It reads each
// attempt's progress once per comparison, a then b, exactly as the
// sort.Slice comparator it replaced did.
func byProgressDesc(a, b *mapred.Attempt) int {
	pa, pb := a.Progress(), b.Progress()
	switch {
	case pa > pb:
		return -1
	case pa < pb:
		return 1
	}
	return 0
}

func (d *DRM) setCap(c *cluster.Consumer, kind resource.Kind, v float64) {
	cur := c.Cap
	if abs64(cur.Get(kind)-v) < 1e-9 {
		return
	}
	c.SetCap(cur.Set(kind, v))
	d.Adjustments++
	d.mAdjustments.Inc()
}

// allocFraction is the bottleneck allocation / demand ratio of a
// consumer.
func allocFraction(c *cluster.Consumer) float64 {
	frac := 1.0
	for _, k := range [...]resource.Kind{resource.CPU, resource.DiskIO, resource.NetIO} {
		dem := c.Demand.Get(k)
		if dem <= 0 {
			continue
		}
		if f := c.Alloc().Get(k) / dem; f < frac {
			frac = f
		}
	}
	return frac
}

// speedWithCap predicts the Leontief speed if one dimension's cap were
// set to capV, other dimensions unchanged.
func speedWithCap(c *cluster.Consumer, kind resource.Kind, capV float64) float64 {
	speed := 1.0
	for _, k := range [...]resource.Kind{resource.CPU, resource.DiskIO, resource.NetIO} {
		dem := c.Demand.Get(k)
		if dem <= 0 {
			continue
		}
		limit := dem
		if k == kind {
			if capV < limit {
				limit = capV
			}
		} else if cv := c.Cap.Get(k); cv > 0 && cv < limit {
			limit = cv
		}
		if f := limit / dem; f < speed {
			speed = f
		}
	}
	return speed
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
