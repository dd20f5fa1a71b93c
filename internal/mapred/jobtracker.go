package mapred

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/perfstat"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// Config parameterizes the framework. Zero values take the paper's Hadoop
// configuration: 2 map and 2 reduce slots per node, speculative execution
// on.
type Config struct {
	// MapSlots is the number of concurrent map tasks per TaskTracker.
	MapSlots int
	// ReduceSlots is the number of concurrent reduce tasks per
	// TaskTracker.
	ReduceSlots int
	// DisableSpeculation turns straggler backups off.
	DisableSpeculation bool
	// SpeculationSlowdown is the fraction of the median attempt speed
	// below which a task is considered a straggler (default 0.5).
	SpeculationSlowdown float64
	// SlotCaps caps every attempt at fixed fractions of its node's
	// useful capacity, modeling vanilla Hadoop's rigid slot containers.
	// HybridMR's Phase II DRM replaces these with dynamically
	// orchestrated caps; the gap between the two is the paper's
	// Figure 8(b,c) improvement.
	SlotCaps bool
	// CapacityAware fills slots on the least-loaded physical machines
	// first, the DRM's capacity-guided in-cluster placement. Vanilla
	// Hadoop (the baseline configurations) visits trackers in fixed
	// heartbeat order.
	CapacityAware bool

	// DisableMapReexecution is a fault-injection hook: it turns off the
	// re-execution of completed maps whose output node was lost, leaving
	// reducers to consume vanished intermediate data. Only the chaos
	// harness sets it, to prove the invariant checker catches the broken
	// recovery path; it must never be on in a real configuration.
	DisableMapReexecution bool
}

// The framework's detector periods and failure handling, as on the
// paper's Hadoop testbed.
const (
	// speculationInterval is how often the straggler detector scans.
	speculationInterval = 10 * time.Second
	// heartbeatInterval is how often the JobTracker checks tracker
	// liveness (Hadoop's heartbeat period).
	heartbeatInterval = 3 * time.Second
	// trackerTimeout is how long a tracker may miss heartbeats before it
	// is declared lost and its work re-executed (Hadoop's default was
	// 10 min, scaled down to the simulation's job sizes).
	trackerTimeout = 30 * time.Second
	// trackerFailureLimit is the failure count at which a tracker is
	// blacklisted with exponential backoff instead of rejoining as soon
	// as it responds again.
	trackerFailureLimit = 3
	// blacklistBackoff is the initial blacklist hold-off; it doubles
	// with each failure beyond the limit.
	blacklistBackoff = 60 * time.Second
)

// A slot container caps each task at a fixed fraction of its node's
// useful capacity, regardless of what the task actually needs. The
// fractions mirror a 2-map/2-reduce-slot Hadoop node: fixed shares of CPU
// and memory per task container, and a coarser share of each I/O channel
// (Hadoop never partitioned I/O as strictly as CPU and memory).
const (
	slotCPUFrac  float64 = 0.75
	slotMemFrac  float64 = 0.25
	slotDiskFrac float64 = 0.45
	slotNetFrac  float64 = 0.45
)

func (c Config) withDefaults() Config {
	if c.MapSlots <= 0 {
		c.MapSlots = 2
	}
	if c.ReduceSlots <= 0 {
		c.ReduceSlots = 2
	}
	if c.SpeculationSlowdown <= 0 {
		c.SpeculationSlowdown = 0.5
	}
	return c
}

// TaskTracker is one worker node of the framework. In the combined
// architecture Compute and Storage are the same node; in the split
// architecture (Figure 3) Compute is a TaskTracker VM and Storage a
// DataNode VM, usually on the same physical machine.
type TaskTracker struct {
	// Compute is the node running task attempts.
	Compute cluster.Node
	// Storage is the node holding the tracker's DFS blocks.
	Storage cluster.Node

	jt          *JobTracker
	mapRunning  int
	redsRunning int

	// idx is the registration order, the deterministic tie-breaker the
	// free-slot index sorts on.
	idx int
	// pm is the physical machine currently backing Compute, tracked so
	// the free-slot index can follow VM migrations.
	pm *cluster.PM
	// pressure caches trackerPressure(tr); it is recomputed only when the
	// backing machine's residents or demands may have changed (see
	// JobTracker.flushDirty), so at every schedule() entry it equals the
	// freshly computed value.
	pressure float64
	// pressureGen is pm's ResidentGen when pressure was computed.
	pressureGen uint64
	// bucket is Compute's running-attempt bucket, looked up once, at the
	// tracker's first launch; see runningInsert.
	bucket *nodeBucket
	// disabled excludes the tracker from assignment; see SetDisabled.
	disabled bool
	// inFreeMaps/inFreeReds record membership in the JobTracker's
	// per-task-type free-slot sets.
	inFreeMaps bool
	inFreeReds bool

	// hung simulates a wedged TaskTracker daemon: tasks may keep
	// running, but heartbeats stop and the JobTracker eventually
	// declares the tracker lost.
	hung bool
	// lost marks a tracker the JobTracker has declared dead (heartbeat
	// timeout or machine failure). Lost trackers receive no work until
	// the health checker restores them.
	lost bool
	// lastSeen is the last simulation time the tracker heartbeated.
	lastSeen time.Duration
	// failures counts how many times this tracker has been declared
	// lost; at trackerFailureLimit it starts getting blacklisted.
	failures int
	// blacklistUntil is the earliest time a responsive tracker may
	// rejoin after being lost.
	blacklistUntil time.Duration
}

// SetDisabled excludes the tracker from task assignment (the IPS
// blacklists trackers on hosts whose interactive tenants are violating
// their SLA). Running attempts are unaffected.
func (tr *TaskTracker) SetDisabled(disabled bool) {
	tr.disabled = disabled
	if !disabled {
		tr.jt.schedule()
	}
}

// Disabled reports whether the tracker is blacklisted.
func (tr *TaskTracker) Disabled() bool { return tr.disabled }

// SetHung wedges (or unwedges) the tracker daemon: a hung tracker stops
// heartbeating and is eventually declared lost, exactly like a real
// TaskTracker JVM stuck in GC. The fault injector drives this.
func (tr *TaskTracker) SetHung(hung bool) {
	if tr.hung == hung {
		return
	}
	tr.hung = hung
	if jt := tr.jt; jt.tracer != nil {
		name := "tracker-hung"
		if !hung {
			name = "tracker-recovered"
		}
		jt.tracer.Instant(tr.Compute.Name(), "mapred", name)
	}
}

// Hung reports whether the tracker daemon is wedged.
func (tr *TaskTracker) Hung() bool { return tr.hung }

// Lost reports whether the JobTracker has declared this tracker dead.
func (tr *TaskTracker) Lost() bool { return tr.lost }

// Failures returns how many times the tracker has been declared lost.
func (tr *TaskTracker) Failures() int { return tr.failures }

// responsive reports whether the tracker could heartbeat right now: its
// daemon is not hung, both of its nodes still sit on live machines, and
// no network partition cuts those machines off from the control plane.
func (tr *TaskTracker) responsive() bool {
	if tr.hung {
		return false
	}
	cm, sm := tr.Compute.Machine(), tr.Storage.Machine()
	if cm == nil || sm == nil {
		return false
	}
	if cm.Failed() || sm.Failed() {
		return false
	}
	return !cm.Isolated() && !sm.Isolated()
}

// isolatedOnly reports whether the tracker is unreachable purely
// because of a network partition: its machines are alive and the daemon
// is not hung, but a partition cuts it off. Such a loss is the
// network's fault, not the node's, so it does not advance the failure
// count toward the blacklist.
func (tr *TaskTracker) isolatedOnly() bool {
	if tr.hung {
		return false
	}
	cm, sm := tr.Compute.Machine(), tr.Storage.Machine()
	if cm == nil || sm == nil || cm.Failed() || sm.Failed() {
		return false
	}
	return cm.Isolated() || sm.Isolated()
}

func (tr *TaskTracker) split() bool { return tr.Compute != tr.Storage }

// FreeSlots returns the tracker's free slots of the kind.
func (tr *TaskTracker) FreeSlots(kind TaskKind) int {
	if kind == MapTask {
		return tr.jt.cfg.MapSlots - tr.mapRunning
	}
	return tr.jt.cfg.ReduceSlots - tr.redsRunning
}

// JobTracker owns the job queue, slot scheduling, the map→reduce barrier
// and speculative execution.
type JobTracker struct {
	engine     *sim.Engine
	fs         *dfs.FileSystem
	cfg        Config
	sched      Scheduler
	trackers   []*TaskTracker
	jobs       []*Job
	nextID     int
	specTick   *sim.Ticker
	healthTick *sim.Ticker
	// pool recycles the consumers of ended attempts (see consumerPool).
	pool consumerPool

	// Incrementally maintained indexes. They replace the full-fleet scans
	// the scale sweep measured superlinear (jt O(n^2.20) before): schedule()
	// walks only trackers with free slots, ordered by cached machine
	// pressure; RunningAttempts returns a maintained name-sorted list; the
	// DRM iterates per-node attempt buckets instead of rebuilding and
	// sorting the fleet every tick. Every structure is updated at the state
	// transition that changes it, so the scheduling decisions — and with
	// them every simulation byte — are identical to the scan-based code.

	// activeJobs holds non-done jobs in submission order.
	activeJobs []*Job
	// pending holds, for maps (index 0) and reduces (index 1), the
	// active jobs with a schedulable task of the kind, in submission
	// order; see pendingJobs.
	pending [2][]*Job
	// schedulableMaps/Reds count pending tasks whose phase gate is open
	// (maps of JobMapPhase jobs, reduces of JobReducePhase jobs). A zero
	// count proves NextTask would return nil for every tracker, letting
	// schedule() stop without touching the fleet.
	schedulableMaps int
	schedulableReds int
	// freeMaps/freeReds hold trackers with a free slot of each task
	// type, ordered by (cached pressure, registration index) under
	// CapacityAware and by registration index otherwise — exactly the
	// prefix order the old sort.SliceStable produced. Their union is the
	// old single free set; schedule() merge-iterates whichever sets have
	// schedulable work so a map wave never walks map-full trackers.
	// Both are pressure-level sets of registration indexes (freeSet in
	// freeset.go).
	freeMaps freeSet
	freeReds freeSet
	// walking is set while schedule() walks the free sets, which must
	// then see no insertion (see freeInsertHook).
	walking     bool
	runningSnap []*Attempt
	// running holds every running attempt ordered by consumer name,
	// maintained at launch/release instead of rebuilt and re-sorted per
	// RunningAttempts call, as a blocked sorted list like the free sets.
	running blockList[*Attempt]
	// spec is speculate's per-tick scratch, reused so a tick that finds
	// no straggler allocates nothing.
	spec specScratch
	// cands is the buffer assignCandidates and speedCandidates build
	// audit candidates in; the audit log copies what Add is given, so
	// one buffer serves every record.
	cands []audit.Candidate
	// buckets groups running attempts by compute node for the DRM's
	// per-node sweep; bucketOrder keeps the buckets in node-name order.
	buckets     map[cluster.Node]*nodeBucket
	bucketOrder []*nodeBucket
	// Pressure-cache invalidation: each PM hosting a tracker gets a
	// cluster watcher that marks it dirty when its allocation is
	// re-solved; flushDirty refreshes the affected cached pressures at the
	// next schedule() entry. pms holds each machine's state, indexed by
	// PM.Index() (the trackers of one JobTracker share one cluster), and
	// dirtyPMs the machines marked since the last flush.
	pms      []pmState
	dirtyPMs []*cluster.PM
	// migrating holds trackers whose compute VM was mid-migration at a
	// flush; see flushDirty.
	migrating []*TaskTracker

	tracer     *trace.Tracer
	auditLog   *audit.Log
	perf       *perfstat.Stats
	inv        InvariantSink
	ts         *timeseries.Collector
	countReads bool

	// Cached metric handles; nil (a no-op) without a registry.
	mSlotWait            *trace.Histogram
	mAttemptDuration     *trace.Histogram
	mSpeculative         *trace.Counter
	mKilled              *trace.Counter
	mRelocations         *trace.Counter
	mJobsCompleted       *trace.Counter
	mTrackersLost        *trace.Counter
	mTrackersRestored    *trace.Counter
	mTrackersBlacklisted *trace.Counter
	mMapsReexecuted      *trace.Counter
	mFetchFailures       *trace.Counter
}

// NewJobTracker creates a framework instance over the given DFS. A nil
// scheduler defaults to FIFO. The JobTracker records slot assignments,
// speculation triggers and tracker blacklisting on the handle's audit
// log, per-job slot waits as windowed histograms, and registers its
// pending/running task depths as time-series probes tagged with label
// (hybrid deployments run two JobTrackers against one collector). A nil
// handle records nothing.
func NewJobTracker(engine *sim.Engine, fs *dfs.FileSystem, cfg Config, sched Scheduler, sinks *obs.Sinks, label string) *JobTracker {
	if sched == nil {
		sched = FIFO{}
	}
	cfg = cfg.withDefaults()
	o := obs.Of(sinks)
	reg := o.Metrics
	jt := &JobTracker{
		engine:     engine,
		fs:         fs,
		cfg:        cfg,
		sched:      sched,
		running:    newBlockList(runningLess),
		buckets:    make(map[cluster.Node]*nodeBucket),
		tracer:     o.Tracer,
		auditLog:   o.Audit,
		perf:       o.Perf,
		ts:         o.TimeSeries,
		countReads: o.Tracer != nil || reg != nil,

		mSlotWait:            reg.Histogram("mapred.task.slot_wait_sec"),
		mAttemptDuration:     reg.Histogram("mapred.attempt.duration_sec"),
		mSpeculative:         reg.Counter("mapred.attempts.speculative"),
		mKilled:              reg.Counter("mapred.attempts.killed"),
		mRelocations:         reg.Counter("mapred.attempts.relocated"),
		mJobsCompleted:       reg.Counter("mapred.jobs.completed"),
		mTrackersLost:        reg.Counter("mapred.trackers.lost"),
		mTrackersRestored:    reg.Counter("mapred.trackers.restored"),
		mTrackersBlacklisted: reg.Counter("mapred.trackers.blacklisted"),
		mMapsReexecuted:      reg.Counter("mapred.maps.reexecuted"),
		mFetchFailures:       reg.Counter("mapred.shuffle.fetch_failures"),
	}
	// Like obs.Sinks.Bind: no probe closures for a nil collector.
	if jt.ts != nil {
		jt.ts.Probe("mapred.tasks.pending", label, func() float64 {
			return float64(jt.schedulableMaps + jt.schedulableReds)
		})
		jt.ts.Probe("mapred.tasks.running", label, func() float64 {
			return float64(jt.running.len())
		})
	}
	return jt
}

// nodeBucket groups the running attempts on one compute node, ordered by
// consumer name — the per-node view the DRM sweeps.
type nodeBucket struct {
	node     cluster.Node
	name     string
	attempts []*Attempt
}

// ensureSpecTicker starts the straggler scanner while jobs are active; it
// stops itself when the queue drains so that simulations can run the
// event queue dry.
func (jt *JobTracker) ensureSpecTicker() {
	if jt.cfg.DisableSpeculation || (jt.specTick != nil && !jt.specTick.Stopped()) {
		return
	}
	jt.specTick = sim.NewTicker(jt.engine, speculationInterval, func(time.Duration) {
		// Park on a drained queue, and also when every worker is
		// permanently gone — stalled jobs would otherwise keep this
		// ticker (and simulated time) running forever.
		if len(jt.activeJobs) == 0 || !jt.anyViableTracker() {
			jt.specTick.Stop()
			return
		}
		jt.speculate()
	})
}

// InvariantSink receives scheduling safety events; the invariant
// checker implements it.
type InvariantSink interface {
	// AttemptStarted fires after an attempt is launched on a tracker.
	AttemptStarted(jt *JobTracker, a *Attempt)
	// AttemptFinished fires when an attempt completes (before the task
	// and job state advance).
	AttemptFinished(jt *JobTracker, a *Attempt)
}

// SetInvariants installs an invariant sink. A nil sink keeps checking
// off.
func (jt *JobTracker) SetInvariants(s InvariantSink) { jt.inv = s }

// AnyLiveTracker reports whether at least one tracker can accept work
// right now: enabled, not declared lost, and responsive (machines
// alive, daemon not hung, no partition cutting them off). Phase I
// consults it per submission to avoid placing a job into a partition
// whose failure domain is currently down; it stops at the first live
// tracker rather than counting the fleet.
func (jt *JobTracker) AnyLiveTracker() bool {
	for _, tr := range jt.trackers {
		if !tr.disabled && !tr.lost && tr.responsive() {
			return true
		}
	}
	return false
}

// FleetViable reports whether at least one tracker could still run
// work, now or after a repair — the condition under which parked jobs
// are a livelock rather than a clean fleet-dead stall.
func (jt *JobTracker) FleetViable() bool { return jt.anyViableTracker() }

// Close stops the background speculation and health scanners.
func (jt *JobTracker) Close() {
	if jt.specTick != nil {
		jt.specTick.Stop()
	}
	if jt.healthTick != nil {
		jt.healthTick.Stop()
	}
}

// Engine returns the simulation engine.
func (jt *JobTracker) Engine() *sim.Engine { return jt.engine }

// FS returns the underlying filesystem.
func (jt *JobTracker) FS() *dfs.FileSystem { return jt.fs }

// AddTracker registers a combined-architecture worker: one node acting as
// both TaskTracker and DataNode.
func (jt *JobTracker) AddTracker(node cluster.Node) *TaskTracker {
	return jt.AddSplitTracker(node, node)
}

// AddSplitTracker registers a split-architecture worker with separate
// compute and storage nodes. The storage node is registered as a DFS
// DataNode.
func (jt *JobTracker) AddSplitTracker(compute, storage cluster.Node) *TaskTracker {
	tr := &TaskTracker{Compute: compute, Storage: storage, jt: jt, idx: len(jt.trackers)}
	tr.lastSeen = jt.engine.Now()
	jt.fs.AddDataNode(storage)
	jt.trackers = append(jt.trackers, tr)
	if jt.cfg.CapacityAware {
		jt.remap(tr, compute.Machine())
		jt.probePressure(tr)
	}
	jt.syncFree(tr) // a fresh tracker always has free slots
	if len(jt.activeJobs) > 0 {
		// Capacity added mid-run (e.g. after a fleet-dead park): revive
		// the failure detector and straggler scanner, and offer the
		// queue to the new worker.
		jt.ensureHealthTicker()
		jt.ensureSpecTicker()
		jt.schedule()
	}
	return tr
}

// Trackers returns the registered workers.
func (jt *JobTracker) Trackers() []*TaskTracker {
	out := make([]*TaskTracker, len(jt.trackers))
	copy(out, jt.trackers)
	return out
}

// EachTracker calls fn on every registered worker in registration order,
// in place. fn must not register trackers.
func (jt *JobTracker) EachTracker(fn func(tr *TaskTracker)) {
	for _, tr := range jt.trackers {
		fn(tr)
	}
}

// TrackerCount returns the number of registered workers without copying
// the list.
func (jt *JobTracker) TrackerCount() int { return len(jt.trackers) }

// Jobs returns jobs that are not yet complete, in submission order.
func (jt *JobTracker) Jobs() []*Job {
	out := make([]*Job, len(jt.activeJobs))
	copy(out, jt.activeJobs)
	return out
}

// RunningAttempts returns every attempt currently executing, ordered by
// consumer name; the Phase II DRM and IPS iterate this to observe and
// control MapReduce load.
//
// Determinism contract (established in PR 6, preserved by the index
// refactor): the order is always ascending consumer name, never a map
// iteration order — map order would leak into the DRM's cap-adjustment
// sequence and randomize the simulation across runs. The list is now
// maintained incrementally (each attempt is inserted at its sorted
// position at launch and removed at release) instead of rebuilt and
// re-sorted per call; jt.attempts_sorted keeps its PR 6 semantics of
// counting elements returned, not sort comparisons, because comparison
// tallies of a map-fed sort were run-dependent even when the sorted
// result was identical.
func (jt *JobTracker) RunningAttempts() []*Attempt {
	if jt.perf != nil {
		jt.perf.C.JTAttemptsSorted += int64(jt.running.len())
	}
	return jt.running.appendTo(make([]*Attempt, 0, jt.running.len()))
}

// EachRunningAttempt calls fn on every running attempt in place, in the
// order and with the jt.attempts_sorted count of RunningAttempts, for
// per-tick readers that would otherwise copy the list. fn must not
// launch, kill, or relocate attempts; reading allocations is safe.
func (jt *JobTracker) EachRunningAttempt(fn func(a *Attempt)) {
	if jt.perf != nil {
		jt.perf.C.JTAttemptsSorted += int64(jt.running.len())
	}
	jt.running.each(fn)
}

// Submit enqueues a job. Input data is materialized in the DFS
// (spread across DataNodes) if this spec's input file does not exist yet.
// OnComplete fires when the job finishes.
func (jt *JobTracker) Submit(spec JobSpec, onComplete func(*Job)) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(jt.trackers) == 0 {
		return nil, fmt.Errorf("mapred: no TaskTrackers registered")
	}
	job := &Job{
		ID:          jt.nextID,
		Spec:        spec,
		OnComplete:  onComplete,
		jt:          jt,
		state:       JobMapPhase,
		submittedAt: jt.engine.Now(),
		mapOutputMB: make(map[*cluster.PM]float64),
		rateStats:   make(map[TaskKind]*rateStat),
	}
	job.key = spec.Name + "-" + strconv.Itoa(job.ID)
	jt.nextID++

	if spec.FixedMapWork > 0 {
		job.maps = newTasks(job, MapTask, spec.FixedMapTasks)
	} else {
		job.inputName = "/jobs/" + job.key + "/input"
		file, ok := jt.fs.File(job.inputName)
		if !ok {
			var err error
			file, err = jt.fs.CreateFile(job.inputName, spec.InputMB, nil)
			if err != nil {
				return nil, fmt.Errorf("mapred: materialize input: %w", err)
			}
		}
		job.maps = newTasks(job, MapTask, len(file.Blocks))
		for i, t := range job.maps {
			t.Block = file.Blocks[i]
		}
	}
	job.mapsRemaining = len(job.maps)
	for _, t := range job.maps {
		t.pendingSince = job.submittedAt
	}
	job.reduces = newTasks(job, ReduceTask, spec.Reduces)
	job.redsRemaining = len(job.reduces)
	job.pendingMaps = len(job.maps)
	job.pendingReds = len(job.reduces)
	// The job starts in the map phase: only its maps are schedulable.
	jt.schedulableMaps += job.pendingMaps

	if jt.tracer != nil {
		track := "job:" + job.key
		job.span = jt.tracer.Begin(track, "job", spec.Name,
			trace.F("maps", float64(len(job.maps))),
			trace.F("reduces", float64(len(job.reduces))),
			trace.F("input_mb", spec.InputMB))
		job.phaseSpan = jt.tracer.Begin(track, "job", "map-phase")
	}

	jt.jobs = append(jt.jobs, job)
	jt.activeJobs = append(jt.activeJobs, job)
	jt.syncPending(job, MapTask)
	jt.ensureSpecTicker()
	jt.ensureHealthTicker()
	jt.schedule()
	return job, nil
}

// schedule fills free slots until no assignable work remains. Trackers
// are visited least-loaded first, so batch tasks flow toward VMs with
// spare capacity before touching nodes already busy with interactive
// tenants — the capacity-guided placement of HybridMR's DRM.
//
// The loop runs on the maintained free-slot index instead of copying and
// sorting the whole fleet per call: cached pressures are refreshed for
// dirtied machines at entry (so the index order equals what a fresh
// stable sort would produce), only trackers with free slots are visited,
// and the walk stops as soon as the schedulable-task counters prove
// NextTask would return nil everywhere. Decisions are unchanged — the
// trackers skipped by the index are exactly those the old scan skipped
// after probing them.
func (jt *JobTracker) schedule() {
	jt.perf.Enter("mapred.schedule")
	defer jt.perf.Exit()
	if jt.perf != nil {
		jt.perf.C.JTScheduleCalls++
	}
	jt.flushDirty()
	for {
		if jt.schedulableMaps == 0 && jt.schedulableReds == 0 {
			return
		}
		if jt.perf != nil {
			jt.perf.C.JTScheduleRounds++
		}
		assigned := false
		// Walk the live free sets with schedulable work in the shared
		// (pressure, idx) order. The walk visits exactly the trackers a
		// snapshot taken at the start of the round would, in the same
		// order, without copying the sets: keys are frozen for the whole
		// call (pressures refresh only at entry, exactly as the old
		// per-call sort froze them), a launch removes at most the tracker
		// being visited (syncFree once its slots fill), and nothing
		// inserts into a set (releaseSlot runs only from completion
		// events). So "the first tracker after the last one visited" is
		// the snapshot's next entry. A set whose task type has nothing
		// schedulable is skipped entirely — every visit to it would be
		// the no-op probe the old scan performed on map-full trackers
		// during a map wave, which is where its O(n^2) hid.
		jt.walking = true
		var nextM, nextR *TaskTracker
		if jt.schedulableMaps > 0 {
			nextM = jt.freeTracker(jt.freeMaps.first())
		}
		if jt.schedulableReds > 0 {
			nextR = jt.freeTracker(jt.freeReds.first())
		}
		// A tracker free for both kinds appears in both sets and is
		// visited once, map kind first — the old per-tracker kind order.
		for nextM != nil || nextR != nil {
			if jt.schedulableMaps == 0 && jt.schedulableReds == 0 {
				break // drained: every further probe would return nil
			}
			var tr *TaskTracker
			switch {
			case nextR == nil || nextM == nextR:
				tr = nextM
			case nextM == nil:
				tr = nextR
			case jt.freeKey(nextM).less(jt.freeKey(nextR)):
				tr = nextM
			default:
				tr = nextR
			}
			tryMap, tryRed := tr == nextM, tr == nextR
			if tryMap {
				nextM = jt.freeTracker(jt.freeMaps.after(jt.freeKey(tr)))
			}
			if tryRed {
				nextR = jt.freeTracker(jt.freeReds.after(jt.freeKey(tr)))
			}
			if tr.disabled || tr.lost {
				continue
			}
			if tryMap {
				if jt.perf != nil {
					jt.perf.C.JTPairsScanned++
				}
				if tr.FreeSlots(MapTask) > 0 && jt.schedulableMaps > 0 {
					if task := jt.sched.NextTask(jt, tr, MapTask); task != nil {
						if err := jt.launch(task, tr, false); err == nil {
							assigned = true
						}
					}
				}
			}
			if tryRed {
				if jt.perf != nil {
					jt.perf.C.JTPairsScanned++
				}
				if tr.FreeSlots(ReduceTask) > 0 && jt.schedulableReds > 0 {
					if task := jt.sched.NextTask(jt, tr, ReduceTask); task != nil {
						if err := jt.launch(task, tr, false); err == nil {
							assigned = true
						}
					}
				}
			}
		}
		jt.walking = false
		if !assigned {
			return
		}
	}
}

// trackerPressure estimates how contended the physical machine behind a
// tracker is: the sum over every resident consumer (tasks, services, DFS
// streams, on any VM of the host and natively) of its dominant demand
// relative to the machine's capacity. Counting the whole machine matters:
// a VM can look idle while its sibling VM runs a latency-critical
// service on the same spindle and cores.
func trackerPressure(tr *TaskTracker) float64 {
	pm := tr.Compute.Machine()
	if pm == nil {
		// The tracker's VM is gone; infinitely contended keeps it at the
		// back of every placement order.
		return math.Inf(1)
	}
	cap := pm.Capacity()
	var p float64
	pm.EachConsumer(func(c *cluster.Consumer) {
		best := 0.0
		for _, k := range resource.Kinds() {
			if cv := cap.Get(k); cv > 0 {
				if r := c.Demand.Get(k) / cv; r > best {
					best = r
				}
			}
		}
		p += best
	})
	return p
}

// launch starts an attempt of task on tracker.
func (jt *JobTracker) launch(task *Task, tr *TaskTracker, speculative bool) error {
	name, id := task.attemptName(tr.Compute.Name())
	if tr.lost {
		return fmt.Errorf("mapred: launch(%s): tracker %s is lost", id, tr.Compute.Name())
	}
	if task.Kind == MapTask && task.Block != nil && len(task.Block.Replicas) == 0 {
		// Correlated failures can destroy every holder of an input block
		// faster than re-replication copies it away. Re-ingest the block
		// from the job's durable upstream source before reading — without
		// this, a re-executed map would consume data that no longer exists
		// anywhere in the cluster.
		if jt.fs.RestoreBlock(task.Block) {
			jt.auditLog.Add("dfs", "restore-input", task.Block.ID,
				"re-ingested from source",
				"all replicas lost; map "+id+" needs the block")
		}
	}
	demand, work, serveDisk := demandAndWork(task, tr)
	a := &Attempt{
		Task:        task,
		Tracker:     tr,
		Speculative: speculative,
		StartedAt:   jt.engine.Now(),
	}
	a.consumer = jt.newConsumer(a, name, demand, work)
	if jt.cfg.SlotCaps {
		cap := tr.Compute.UsefulCapacity()
		a.consumer.Cap = resource.NewVector(
			cap.Get(resource.CPU)*slotCPUFrac,
			cap.Get(resource.Memory)*slotMemFrac,
			cap.Get(resource.DiskIO)*slotDiskFrac,
			cap.Get(resource.NetIO)*slotNetFrac,
		)
	}
	if err := tr.Compute.Start(&a.consumer.Consumer); err != nil {
		jt.pool.putBack(a.consumer)
		return err
	}
	if !speculative {
		a.SlotWait = jt.engine.Now() - task.pendingSince
		jt.mSlotWait.Observe(a.SlotWait.Seconds())
		jt.ts.Observe("mapred.task.slot_wait_sec", task.Job.Spec.Name, jt.engine.Now(), a.SlotWait.Seconds())
	} else {
		jt.mSpeculative.Inc()
	}
	var loc dfs.Locality
	if jt.countReads && task.Kind == MapTask && task.Block != nil {
		loc = jt.fs.BlockLocality(task.Block, tr.Storage)
		jt.fs.CountRead(task.Block, tr.Compute, loc)
	}
	if jt.tracer != nil {
		var argBuf [5]trace.Arg
		args := append(argBuf[:0],
			trace.S("job", task.Job.key),
			trace.S("kind", task.Kind.String()),
			trace.F("slot_wait_sec", a.SlotWait.Seconds()))
		if speculative {
			args = append(args, trace.S("speculative", "true"))
		}
		if loc != 0 {
			args = append(args, trace.S("locality", loc.String()))
		}
		a.span = jt.tracer.Begin(tr.Compute.Name(), "task", id, args...)
	}
	if jt.auditLog != nil {
		reason := "fixed heartbeat order (vanilla Hadoop)"
		if jt.cfg.CapacityAware {
			reason = "capacity-aware: least-pressure machine first"
		}
		if speculative {
			reason = "speculative backup on the least-loaded alternative"
		}
		jt.auditLog.Add("mapred", "assign", id, tr.Compute.Name(), reason,
			jt.assignCandidates(task.Kind, tr)...)
	}
	if serveDisk > 0 && tr.split() {
		a.serve = &cluster.Consumer{
			Name:   id + "-serve@" + tr.Storage.Name(),
			Demand: demandServe(serveDisk),
			Work:   work,
		}
		// Best effort: storage-side stream failure does not fail the task.
		_ = tr.Storage.Start(a.serve)
	}
	task.attempts = append(task.attempts, a)
	jt.setTaskState(task, TaskRunning)
	if task.Kind == MapTask {
		tr.mapRunning++
	} else {
		tr.redsRunning++
	}
	jt.syncFree(tr)
	a.slotHeld = true
	jt.runningInsert(a)
	if jt.inv != nil {
		jt.inv.AttemptStarted(jt, a)
	}
	return nil
}

// assignCandidates lists, for the audit log, the trackers that had a
// free slot of the kind when one of them was chosen, scored by machine
// pressure. The list is capped (the chosen tracker is always kept) so
// records stay readable on large clusters; only the kept trackers are
// scored.
func (jt *JobTracker) assignCandidates(kind TaskKind, chosen *TaskTracker) []audit.Candidate {
	const maxCandidates = 8
	var kept [maxCandidates]*TaskTracker
	n, seenChosen := 0, false
	for _, tr := range jt.trackers {
		if tr != chosen && (tr.disabled || tr.lost || tr.FreeSlots(kind) <= 0) {
			continue
		}
		if n < maxCandidates {
			kept[n] = tr
			n++
		} else if tr == chosen {
			kept[n-1] = tr // chosen beyond the cap replaces the tail
		}
		if tr == chosen {
			seenChosen = true
		}
		if seenChosen && n == maxCandidates {
			break // nothing later can enter the list
		}
	}
	out := jt.cands[:0]
	for _, tr := range kept[:n] {
		out = append(out, audit.Candidate{
			Name:   tr.Compute.Name(),
			Score:  trackerPressure(tr),
			Chosen: tr == chosen,
			Note:   "machine pressure",
		})
	}
	jt.cands = out
	return out
}

// attemptFinished handles a completed attempt: the first completion wins
// the task; other attempts are cancelled.
func (jt *JobTracker) attemptFinished(a *Attempt) {
	if a.finished || a.killed {
		return
	}
	if a.Task.Kind == ReduceTask && jt.shuffleFetchFailed(a) {
		return
	}
	a.finished = true
	a.FinishedAt = jt.engine.Now()
	if jt.inv != nil {
		jt.inv.AttemptFinished(jt, a)
	}
	jt.releaseSlot(a)
	if a.serve != nil && a.serve.Running() {
		a.serve.Stop()
	}
	a.span.End(trace.S("outcome", "done"))
	jt.mAttemptDuration.Observe((a.FinishedAt - a.StartedAt).Seconds())
	if elapsed := (jt.engine.Now() - a.StartedAt).Seconds(); elapsed > 0 && a.consumer != nil {
		a.Task.Job.recordAttemptRate(a.Task.Kind, a.consumer.Work/elapsed)
	}
	a.release()
	task := a.Task
	if task.state == TaskDone {
		jt.schedule()
		return
	}
	jt.setTaskState(task, TaskDone)
	// Cancel losing attempts.
	for _, other := range task.attempts {
		if other != a && other.Running() {
			other.killed = true
			other.FinishedAt = jt.engine.Now()
			other.span.End(trace.S("outcome", "lost-race"))
			jt.releaseSlot(other)
			if other.consumer != nil {
				other.consumer.Stop()
			}
			if other.serve != nil && other.serve.Running() {
				other.serve.Stop()
			}
			other.release()
		}
	}
	job := task.Job
	if task.Kind == MapTask {
		job.recordMapOutput(task, a.Tracker)
		job.mapsRemaining--
		if job.mapsRemaining == 0 {
			job.mapsDoneAt = jt.engine.Now()
			job.phaseSpan.End()
			if len(job.reduces) == 0 {
				jt.finishJob(job)
			} else {
				jt.setJobState(job, JobReducePhase)
				// Reduces become schedulable only now: slot wait is
				// measured from the barrier, not from submission.
				for _, t := range job.reduces {
					if t.state == TaskPending {
						t.pendingSince = job.mapsDoneAt
					}
				}
				if jt.tracer != nil {
					job.phaseSpan = jt.tracer.Begin(
						"job:"+job.key, "job", "reduce-phase")
				}
			}
		}
	} else {
		job.redsRemaining--
		if job.redsRemaining == 0 {
			jt.finishJob(job)
		}
	}
	jt.schedule()
}

// attemptKilled handles an externally killed attempt (IPS action or VM
// failure): the task returns to the pending queue, as Hadoop's
// re-execution machinery guarantees.
func (jt *JobTracker) attemptKilled(a *Attempt) {
	if a.finished || a.killed {
		return
	}
	a.killed = true
	a.FinishedAt = jt.engine.Now()
	a.span.End(trace.S("outcome", "killed"))
	jt.mKilled.Inc()
	jt.releaseSlot(a)
	if a.serve != nil && a.serve.Running() {
		a.serve.Stop()
	}
	a.release()
	task := a.Task
	if task.state == TaskRunning && task.runningAttempts() == 0 {
		jt.setTaskState(task, TaskPending)
		task.pendingSince = jt.engine.Now()
	}
	jt.schedule()
}

func (jt *JobTracker) releaseSlot(a *Attempt) {
	if !a.slotHeld {
		return
	}
	a.slotHeld = false
	jt.runningRemove(a)
	if a.Task.Kind == MapTask {
		a.Tracker.mapRunning--
	} else {
		a.Tracker.redsRunning--
	}
	jt.syncFree(a.Tracker)
}

func (jt *JobTracker) finishJob(job *Job) {
	jt.setJobState(job, JobDone)
	jt.removeActiveJob(job)
	job.doneAt = jt.engine.Now()
	job.phaseSpan.End()
	job.span.End(trace.F("jct_sec", job.JCT().Seconds()))
	jt.mJobsCompleted.Inc()
	if len(jt.activeJobs) == 0 && jt.specTick != nil {
		jt.specTick.Stop()
	}
	if job.OnComplete != nil {
		job.OnComplete(job)
	}
}

// Relocate moves a running attempt to another tracker: the original
// attempt is cancelled (its progress is lost, as in Hadoop task
// re-execution) and a fresh attempt of the same kind (primary or
// speculative backup) starts on the destination. The task returns to
// the pending state only for the instant between the two, and only if
// no other attempt of it runs, so relocating a backup never makes it a
// second primary. The destination is checked first for everything the
// relaunch needs (not lost, not a migrating VM, a running machine, a
// free slot of the task's kind), so a Relocate that fails leaves the
// original attempt running. The Phase II IPS uses this to evict
// interfering map/reduce tasks from VMs whose interactive tenants are
// violating their SLA.
func (jt *JobTracker) Relocate(a *Attempt, dst *TaskTracker) error {
	if a == nil || dst == nil {
		return fmt.Errorf("mapred: Relocate: nil attempt or destination")
	}
	if !a.Running() {
		return fmt.Errorf("mapred: Relocate(%s): attempt not running", a.Task.ID())
	}
	if dst == a.Tracker {
		return fmt.Errorf("mapred: Relocate(%s): already on %s", a.Task.ID(), dst.Compute.Name())
	}
	if dst.lost {
		return fmt.Errorf("mapred: Relocate(%s): tracker %s is lost", a.Task.ID(), dst.Compute.Name())
	}
	if inMigration(dst) {
		return fmt.Errorf("mapred: Relocate(%s): %s is migrating", a.Task.ID(), dst.Compute.Name())
	}
	if pm := dst.Compute.Machine(); pm == nil || pm.Off() {
		return fmt.Errorf("mapred: Relocate(%s): %s has no running machine", a.Task.ID(), dst.Compute.Name())
	}
	if dst.FreeSlots(a.Task.Kind) <= 0 {
		return fmt.Errorf("mapred: Relocate(%s): no free %s slot on %s", a.Task.ID(), a.Task.Kind, dst.Compute.Name())
	}
	a.killed = true
	a.FinishedAt = jt.engine.Now()
	a.span.End(trace.S("outcome", "relocated"), trace.S("to", dst.Compute.Name()))
	jt.mRelocations.Inc()
	jt.releaseSlot(a)
	if a.consumer != nil {
		a.consumer.Stop()
	}
	if a.serve != nil && a.serve.Running() {
		a.serve.Stop()
	}
	a.release()
	task := a.Task
	if task.runningAttempts() == 0 {
		jt.setTaskState(task, TaskPending)
	}
	// A relaunch waits for no slot: a relocated primary's slot wait is 0.
	task.pendingSince = jt.engine.Now()
	return jt.launch(task, dst, a.Speculative)
}

// HandleMachineFailures declares lost every tracker whose compute or
// storage node lived on one of the failed machines, returning how many
// were. Running attempts on them are killed and their tasks re-queued,
// completed map outputs stranded on the machines are re-executed
// (reducers could no longer fetch them), and the trackers rejoin only
// if their machine comes back and any blacklist hold-off expires. The
// trackers are lost in ONE batch, so the re-queue triggered by the
// first kill cannot land work on a sibling that the same rack or
// power-domain crash is about to take down too.
func (jt *JobTracker) HandleMachineFailures(pms []*cluster.PM) int {
	failed := make(map[*cluster.PM]bool, len(pms))
	for _, pm := range pms {
		if pm != nil {
			failed[pm] = true
		}
	}
	var affected []*TaskTracker
	for _, tr := range jt.trackers {
		if tr.lost {
			continue
		}
		cm, sm := tr.Compute.Machine(), tr.Storage.Machine()
		// A nil machine means the node's VM was already destroyed by the
		// failure.
		if failed[cm] || failed[sm] || cm == nil || sm == nil {
			affected = append(affected, tr)
		}
	}
	return jt.trackersLost(affected, "machine-failure")
}

// HandleNodeLost declares lost every tracker using the given node — the
// VM-crash analogue of HandleMachineFailures.
func (jt *JobTracker) HandleNodeLost(n cluster.Node) int {
	var affected []*TaskTracker
	for _, tr := range jt.trackers {
		if tr.lost {
			continue
		}
		if tr.Compute == n || tr.Storage == n ||
			tr.Compute.Machine() == nil || tr.Storage.Machine() == nil {
			affected = append(affected, tr)
		}
	}
	return jt.trackersLost(affected, "node-lost")
}

// speculate launches backup attempts for stragglers: running attempts
// whose speed is well below the median of their job's running attempts of
// the same kind.
func (jt *JobTracker) speculate() {
	jt.perf.Enter("mapred.speculate")
	defer jt.perf.Exit()
	// Group via the sorted attempt list and visit jobs in submission
	// order: iteration order decides which straggler claims the last free
	// slot, so it must be stable across runs. The groups are filled
	// before any backup launches, so the launches cannot disturb them.
	sc := &jt.spec
	defer sc.reset()
	if jt.perf != nil {
		jt.perf.C.JTSpeculationScans += int64(jt.running.len())
	}
	jt.EachRunningAttempt(sc.add)
	for _, job := range jt.activeJobs {
		g, ok := sc.group[job]
		if !ok {
			continue
		}
		for _, kind := range [...]TaskKind{MapTask, ReduceTask} {
			attempts := sc.attempts[g+kind.slot()]
			if len(attempts) == 0 {
				continue
			}
			// Reference rate: the job's completed-attempt history when
			// available (so a tail of uniformly slow stragglers is
			// still detected), otherwise the running median.
			reference, ok := job.historicalRate(kind)
			if !ok {
				if len(attempts) < 2 {
					continue
				}
				reference = sc.medianSpeed(attempts)
			}
			if reference <= 0 {
				continue
			}
			for _, a := range attempts {
				if a.Speculative || a.Task.runningAttempts() > 1 {
					continue
				}
				if a.Progress() > 0.9 {
					continue
				}
				if a.Speed() >= reference*jt.cfg.SpeculationSlowdown {
					continue
				}
				var reason string
				if jt.auditLog != nil { // read the speed before a backup's launch moves it
					reason = fmt.Sprintf("straggler: speed %.3f below %.3f (reference %.3f × slowdown %.2f)",
						a.Speed(), reference*jt.cfg.SpeculationSlowdown, reference, jt.cfg.SpeculationSlowdown)
				}
				if tr := jt.freeTrackerExcluding(a.Tracker, a.Task.Kind); tr != nil {
					if err := jt.launch(a.Task, tr, true); err == nil && jt.auditLog != nil {
						jt.auditLog.Add("mapred", "speculate", a.Task.ID(),
							tr.Compute.Name(), reason, jt.speedCandidates(attempts, a)...)
					}
				} else if jt.auditLog != nil {
					jt.auditLog.Add("mapred", "speculate", a.Task.ID(),
						"none", reason+"; no free tracker for a backup",
						jt.speedCandidates(attempts, a)...)
				}
			}
		}
	}
}

// speedCandidates lists, for the audit log, the progress rates the
// straggler detector compared: each running attempt of the scanned
// job/kind group, the flagged straggler marked chosen.
func (jt *JobTracker) speedCandidates(attempts []*Attempt, straggler *Attempt) []audit.Candidate {
	const maxCandidates = 8
	out := jt.cands[:0]
	for _, a := range attempts {
		c := audit.Candidate{
			Name:   a.consumer.Name,
			Score:  a.Speed(),
			Chosen: a == straggler,
			Note:   "progress rate",
		}
		if len(out) == maxCandidates {
			if a != straggler {
				continue
			}
			out[len(out)-1] = c
			continue
		}
		out = append(out, c)
	}
	jt.cands = out
	return out
}

// freeTrackerExcluding picks the least-loaded tracker with a free slot —
// a speculative backup on a node as contended as the straggler's would
// only double the pain.
func (jt *JobTracker) freeTrackerExcluding(exclude *TaskTracker, kind TaskKind) *TaskTracker {
	var best *TaskTracker
	bestPressure := 0.0
	for _, tr := range jt.trackers {
		if tr == exclude || tr.disabled || tr.lost || tr.FreeSlots(kind) <= 0 {
			continue
		}
		p := trackerPressure(tr)
		if best == nil || p < bestPressure {
			best, bestPressure = tr, p
		}
	}
	return best
}

// specScratch groups one speculation tick's running attempts by job and
// kind: group[job] is the index in attempts of the job's map group, its
// reduce group follows. Between ticks the map is empty and every group
// has length 0, but the storage stays for the next tick.
type specScratch struct {
	group    map[*Job]int
	attempts [][]*Attempt
	used     int
	speeds   []float64
}

// slot is the kind's offset within a job's pair of groups.
func (k TaskKind) slot() int {
	if k == MapTask {
		return 0
	}
	return 1
}

// add appends a to its job and kind's group, opening the job's pair of
// groups on its first attempt.
func (sc *specScratch) add(a *Attempt) {
	if sc.group == nil {
		sc.group = make(map[*Job]int)
	}
	g, ok := sc.group[a.Task.Job]
	if !ok {
		g = sc.used
		sc.used += 2
		for len(sc.attempts) < sc.used {
			sc.attempts = append(sc.attempts, nil)
		}
		sc.group[a.Task.Job] = g
	}
	k := g + a.Task.Kind.slot()
	sc.attempts[k] = append(sc.attempts[k], a)
}

// reset empties the groups, dropping their pointers so finished jobs and
// attempts are not kept alive until the next tick.
func (sc *specScratch) reset() {
	clear(sc.group)
	for i := range sc.attempts[:sc.used] {
		clear(sc.attempts[i])
		sc.attempts[i] = sc.attempts[i][:0]
	}
	sc.used = 0
}

// medianSpeed is the median progress rate of attempts.
func (sc *specScratch) medianSpeed(attempts []*Attempt) float64 {
	// Mass re-execution after a failure can empty an attempt list
	// between grouping and inspection; a zero reference disables
	// speculation for the scan rather than indexing an empty slice.
	if len(attempts) == 0 {
		return 0
	}
	speeds := sc.speeds[:0]
	for _, a := range attempts {
		speeds = append(speeds, a.Speed())
	}
	sc.speeds = speeds
	// Insertion sort: attempt lists are small.
	for i := 1; i < len(speeds); i++ {
		for k := i; k > 0 && speeds[k] < speeds[k-1]; k-- {
			speeds[k], speeds[k-1] = speeds[k-1], speeds[k]
		}
	}
	return speeds[len(speeds)/2]
}
