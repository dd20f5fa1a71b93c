package mapred

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/perfstat"
	"repro/internal/resource"
	"repro/internal/sim"
)

// snapshotSchedule is schedule() as it was before the live walk: every
// round copies both free sets and merge-iterates the copies. It is the
// reference the live walk must reproduce, visit for visit.
func snapshotSchedule(jt *JobTracker) {
	jt.flushDirty()
	for {
		if jt.schedulableMaps == 0 && jt.schedulableReds == 0 {
			return
		}
		assigned := false
		var snapM, snapR []*TaskTracker
		if jt.schedulableMaps > 0 {
			snapM = freeTrackers(jt, &jt.freeMaps)
		}
		if jt.schedulableReds > 0 {
			snapR = freeTrackers(jt, &jt.freeReds)
		}
		mi, ri := 0, 0
		for mi < len(snapM) || ri < len(snapR) {
			if jt.schedulableMaps == 0 && jt.schedulableReds == 0 {
				break
			}
			var tr *TaskTracker
			tryMap, tryRed := false, false
			switch {
			case mi < len(snapM) && ri < len(snapR):
				if snapM[mi] == snapR[ri] {
					tr, tryMap, tryRed = snapM[mi], true, true
					mi++
					ri++
				} else if jt.freeKey(snapM[mi]).less(jt.freeKey(snapR[ri])) {
					tr, tryMap = snapM[mi], true
					mi++
				} else {
					tr, tryRed = snapR[ri], true
					ri++
				}
			case mi < len(snapM):
				tr, tryMap = snapM[mi], true
				mi++
			default:
				tr, tryRed = snapR[ri], true
				ri++
			}
			if tr.disabled || tr.lost {
				continue
			}
			if tryMap && tr.FreeSlots(MapTask) > 0 && jt.schedulableMaps > 0 {
				if task := jt.sched.NextTask(jt, tr, MapTask); task != nil {
					if err := jt.launch(task, tr, false); err == nil {
						assigned = true
					}
				}
			}
			if tryRed && tr.FreeSlots(ReduceTask) > 0 && jt.schedulableReds > 0 {
				if task := jt.sched.NextTask(jt, tr, ReduceTask); task != nil {
					if err := jt.launch(task, tr, false); err == nil {
						assigned = true
					}
				}
			}
		}
		if !assigned {
			return
		}
	}
}

// The schedulers as they were before the pending-job lists: each scans
// every active job, and Fair weighs each job's share by a weight of 1
// and counts its running tasks by scanning them. They are the reference
// the list-walking schedulers must reproduce, choice for choice.

func scanRunningTasks(j *Job) int {
	n := 0
	for _, t := range j.maps {
		if t.state == TaskRunning {
			n++
		}
	}
	for _, t := range j.reduces {
		if t.state == TaskRunning {
			n++
		}
	}
	return n
}

func scanFIFO(jt *JobTracker, tr *TaskTracker, kind TaskKind) *Task {
	for _, j := range jt.activeJobs {
		if t := j.pendingTask(kind, tr); t != nil {
			return t
		}
	}
	return nil
}

func scanFair(jt *JobTracker, tr *TaskTracker, kind TaskKind) *Task {
	var best *Job
	bestDeficit := 0.0
	var totalWeight float64
	for range jt.activeJobs {
		totalWeight += 1
	}
	if len(jt.activeJobs) == 0 {
		return nil
	}
	totalSlots := float64(len(jt.trackers) * (jt.cfg.MapSlots + jt.cfg.ReduceSlots))
	for _, j := range jt.activeJobs {
		if !j.hasPending(kind) {
			continue
		}
		share := totalSlots * 1 / totalWeight
		deficit := share - float64(scanRunningTasks(j))
		if best == nil || deficit > bestDeficit {
			best = j
			bestDeficit = deficit
		}
	}
	if best == nil {
		return nil
	}
	return best.pendingTask(kind, tr)
}

func scanLocalityGreedy(jt *JobTracker, tr *TaskTracker, kind TaskKind) *Task {
	var fallback *Task
	for _, j := range jt.activeJobs {
		t := j.pendingTask(kind, tr)
		if t == nil {
			continue
		}
		if kind == MapTask && t.Block != nil &&
			jt.fs.BlockLocality(t.Block, tr.Storage) == dfs.NodeLocal {
			return t
		}
		if fallback == nil {
			fallback = t
		}
	}
	return fallback
}

func scanJobDriven(jt *JobTracker, tr *TaskTracker, kind TaskKind) *Task {
	var best *Job
	bestLeft := 0
	for _, j := range jt.activeJobs {
		if !j.hasPending(kind) {
			continue
		}
		left := j.pendingMaps + j.pendingReds
		if best == nil || left < bestLeft {
			best = j
			bestLeft = left
		}
	}
	if best == nil {
		return nil
	}
	return best.pendingTask(kind, tr)
}

// sortedRunning is the running list rebuilt from the tasks: every
// attempt holding a slot, sorted by name, an attempt ahead of the
// equal-named ones launched before it (the list's tie order).
func sortedRunning(jt *JobTracker) []*Attempt {
	var out []*Attempt
	for _, j := range jt.jobs {
		for _, tasks := range [][]*Task{j.maps, j.reduces} {
			for _, t := range tasks {
				for i := len(t.attempts) - 1; i >= 0; i-- {
					if a := t.attempts[i]; a.slotHeld {
						out = append(out, a)
					}
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].consumer.Name < out[j].consumer.Name })
	return out
}

// checkSchedulingState checks the JobTracker's maintained scheduling
// state against scans: each pending-job list equals the active jobs
// filtered by hasPending, each job's running counter equals a count of
// its running tasks, each built-in scheduler picks for every probed
// tracker what its scanning reference picks, and the running list
// equals the name-sorted attempts. It returns how many jobs the two
// pending lists held.
func checkSchedulingState(t *testing.T, step int, jt *JobTracker, probes []*TaskTracker) int {
	t.Helper()
	held := 0
	for _, kind := range []TaskKind{MapTask, ReduceTask} {
		var want []*Job
		for _, j := range jt.activeJobs {
			if j.hasPending(kind) {
				want = append(want, j)
			}
		}
		if got := jt.pendingJobs(kind); !slices.Equal(got, want) {
			t.Fatalf("step %d: %s pending-job list holds %d jobs, the filtered active list %d, or in another order",
				step, kind, len(got), len(want))
		}
		held += len(want)
	}
	for _, j := range jt.jobs {
		if n := scanRunningTasks(j); j.running != n {
			t.Fatalf("step %d: job %s counts %d running tasks, a scan %d", step, j.key, j.running, n)
		}
	}
	pairs := []struct {
		sched Scheduler
		scan  func(*JobTracker, *TaskTracker, TaskKind) *Task
	}{
		{FIFO{}, scanFIFO},
		{Fair{}, scanFair},
		{LocalityGreedy{}, scanLocalityGreedy},
		{JobDriven{}, scanJobDriven},
	}
	for _, tr := range probes {
		for _, kind := range []TaskKind{MapTask, ReduceTask} {
			for _, p := range pairs {
				if got, want := p.sched.NextTask(jt, tr, kind), p.scan(jt, tr, kind); got != want {
					t.Fatalf("step %d: %s picks a different %s task for %s than its scan", step, p.sched.Name(), kind, tr.Compute.Name())
				}
			}
		}
	}
	if got, want := jt.running.appendTo(nil), sortedRunning(jt); !slices.Equal(got, want) {
		t.Fatalf("step %d: running list holds %d attempts, the name-sorted reference %d, or in another order",
			step, len(got), len(want))
	}
	return held
}

// probe is one (tracker, kind) visit, keyed by registration index so
// visits compare across separately built rigs.
type probe struct {
	idx  int
	kind TaskKind
}

// gatedFIFO is FIFO that assigns, and records its probes, only while
// armed. Disarmed, it lets the JobTracker's own schedule() calls (on
// submission, completion, re-enable) run without launching anything, so
// every launch happens in a call the test makes.
type gatedFIFO struct {
	armed  bool
	probes []probe
}

func (*gatedFIFO) Name() string { return "gated-fifo" }

func (g *gatedFIFO) NextTask(jt *JobTracker, tr *TaskTracker, kind TaskKind) *Task {
	if !g.armed {
		return nil
	}
	g.probes = append(g.probes, probe{tr.idx, kind})
	return FIFO{}.NextTask(jt, tr, kind)
}

// failOnWalkInsert installs a free-set insertion hook that fails the
// test if a tracker enters a free set while schedule() walks the sets.
func failOnWalkInsert(t *testing.T) {
	t.Helper()
	freeInsertHook = func(jt *JobTracker, tr *TaskTracker) {
		if jt.walking {
			t.Errorf("tracker %s inserted into a free set during a schedule() walk", tr.Compute.Name())
		}
	}
	t.Cleanup(func() { freeInsertHook = nil })
}

// TestLiveWalkMatchesSnapshotWalk runs two identical 401-tracker rigs in
// lockstep through seeded churn — job arrivals, completions, machine
// load changes that re-key pressures, trackers disabled and re-enabled,
// nodes lost with the map outputs they held — scheduling one with
// schedule()'s live walk and the other with the snapshot reference.
// Every call must probe the same (tracker, kind) sequence and leave the
// same attempts running, and after every step the live rig's pending-job
// lists, running counters, scheduler choices and running list must match
// their scanning references (checkSchedulingState).
func TestLiveWalkMatchesSnapshotWalk(t *testing.T) {
	failOnWalkInsert(t)
	type walkRig struct {
		engine *sim.Engine
		jt     *JobTracker
		sched  *gatedFIFO
		rng    *rand.Rand
		load   map[int]*cluster.Consumer
	}
	newRig := func() *walkRig {
		g := &gatedFIFO{}
		engine, jt := rig(t, 401, Config{CapacityAware: true}, g)
		return &walkRig{engine: engine, jt: jt, sched: g, rng: rand.New(rand.NewSource(41)), load: map[int]*cluster.Consumer{}}
	}
	churn := func(r *walkRig, step int) {
		rng, trackers := r.rng, r.jt.Trackers()
		if step%4 == 0 {
			if _, err := r.jt.Submit(sortLike(float64(64*(50+rng.Intn(400)))), nil); err != nil {
				t.Fatal(err)
			}
		}
		r.engine.RunUntil(r.engine.Now() + time.Duration(rng.Intn(20))*time.Second)
		for i := 0; i < 20; i++ {
			idx := rng.Intn(len(trackers))
			if c := r.load[idx]; c != nil {
				c.Stop()
				delete(r.load, idx)
				continue
			}
			c := &cluster.Consumer{
				Name:   fmt.Sprintf("load-%d", idx),
				Demand: resource.NewVector(float64(rng.Intn(4))*0.25, 0, float64(rng.Intn(3))*10, 0),
				Work:   cluster.OpenEnded,
			}
			if err := trackers[idx].Compute.Start(c); err != nil {
				t.Fatal(err)
			}
			r.load[idx] = c
		}
		for i := 0; i < 3; i++ {
			tr := trackers[rng.Intn(len(trackers))]
			tr.SetDisabled(!tr.disabled)
		}
		if step%6 == 5 {
			// A lost node re-queues the maps whose output it held and
			// rolls reduce-phase jobs back to the map phase.
			r.jt.HandleNodeLost(trackers[rng.Intn(len(trackers))].Compute)
		}
	}

	live, ref := newRig(), newRig()
	multi, crowded := 0, 0
	var probes []*TaskTracker
	for i, tr := range live.jt.Trackers() {
		if i%40 == 0 {
			probes = append(probes, tr)
		}
	}
	for step := 0; step < 120; step++ {
		churn(live, step)
		churn(ref, step)
		// The gated scheduler launches nothing during churn, so jobs
		// that reached the reduce phase or lost map outputs queue up.
		if checkSchedulingState(t, step, live.jt, probes) > 2 {
			crowded++
		}
		live.sched.armed, ref.sched.armed = true, true
		live.sched.probes, ref.sched.probes = live.sched.probes[:0], ref.sched.probes[:0]
		live.jt.schedule()
		snapshotSchedule(ref.jt)
		live.sched.armed, ref.sched.armed = false, false
		if !slices.Equal(live.sched.probes, ref.sched.probes) {
			t.Fatalf("step %d: live walk probed %d (tracker, kind) pairs, snapshot walk %d, or in another order",
				step, len(live.sched.probes), len(ref.sched.probes))
		}
		if a, b := live.jt.RunningCount(), ref.jt.RunningCount(); a != b {
			t.Fatalf("step %d: %d attempts running under the live walk, %d under the snapshot", step, a, b)
		}
		if len(live.sched.probes) > 1 {
			multi++
		}
		checkSchedulingState(t, step, live.jt, probes)
	}
	if multi < 20 {
		t.Fatalf("only %d steps probed more than one tracker; the comparison is too tame", multi)
	}
	if crowded < 15 {
		t.Fatalf("only %d steps had more than two pending-list entries; the scheduler checks are too tame", crowded)
	}
}

// TestFreeSetAfterZeroAlloc pins the live walk's step allocation-free.
func TestFreeSetAfterZeroAlloc(t *testing.T) {
	_, jt := rig(t, 3*blockMax+17, Config{CapacityAware: true}, nil)
	trackers := jt.Trackers()
	if allocs := testing.AllocsPerRun(100, func() {
		for id := jt.freeMaps.first(); id >= 0; id = jt.freeMaps.after(jt.freeKey(trackers[id])) {
		}
		jt.freeReds.after(jt.freeKey(trackers[len(trackers)/2]))
	}); allocs != 0 {
		t.Errorf("walking a free set allocates %.1f times, want 0", allocs)
	}
}

// TestCachedPressuresStayFresh drives a capacity-aware virtual cluster
// through launches, completions, demand changes, cap grants (binding
// and not), weight changes and VM migrations. After every flush, each
// cached pressure must equal a fresh trackerPressure bit for bit, even
// though cap- and weight-only re-solves skip the recomputation.
func TestCachedPressuresStayFresh(t *testing.T) {
	engine := sim.New()
	c := cluster.New(engine, cluster.Config{}, 7, nil)
	ps := perfstat.New()
	jt := NewJobTracker(engine, dfs.New(engine, 7, nil), Config{CapacityAware: true}, nil, &obs.Sinks{Perf: ps}, "")
	hosts := c.AddPMs("pm", 12)
	vms, err := c.SpreadVMs("vm", 24, hosts, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms {
		jt.AddTracker(vm)
	}
	rng := rand.New(rand.NewSource(5))
	visits, probes := int64(0), int64(0)
	for step := 0; step < 300; step++ {
		if step%25 == 0 {
			if _, err := jt.Submit(sortLike(float64(64*(10+rng.Intn(60)))), nil); err != nil {
				t.Fatal(err)
			}
		}
		engine.RunUntil(engine.Now() + time.Duration(rng.Intn(3000))*time.Millisecond)
		running := jt.RunningAttempts()
		for i := 0; i < 4 && len(running) > 0; i++ {
			cons := running[rng.Intn(len(running))].Consumer()
			if !cons.Running() {
				continue
			}
			switch rng.Intn(4) {
			case 0:
				cons.SetDemand(cons.Demand.Scale(0.5 + rng.Float64()))
			case 1:
				cons.SetCap(cons.Demand.Scale(0.3 + rng.Float64())) // may bind
			case 2:
				cons.SetCap(cons.Demand.Scale(1.5 + rng.Float64())) // never binds
			default:
				cons.SetWeight(0.5 + rng.Float64())
			}
		}
		if step%40 == 39 {
			vm := vms[rng.Intn(len(vms))]
			if dst := hosts[rng.Intn(len(hosts))]; vm.State() == cluster.VMRunning && dst != vm.Machine() {
				_ = c.Migrate(vm, dst, nil) // a full destination is fine to skip
			}
		}
		for _, pm := range jt.dirtyPMs {
			visits += int64(len(jt.pms[pm.Index()].trackers))
		}
		before := ps.C.JTPressureProbes
		jt.flushDirty()
		probes += ps.C.JTPressureProbes - before
		for _, tr := range jt.trackers {
			if got, want := tr.pressure, trackerPressure(tr); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: %s caches pressure %v, fresh %v", step, tr.Compute.Name(), got, want)
			}
		}
	}
	if probes >= visits || probes == 0 {
		t.Fatalf("flushes recomputed %d of %d dirtied trackers' pressures; expected some but not all", probes, visits)
	}
}

// TestFlushRemapsTrackerMigratedBetweenFlushes covers the flush that
// first sees a tracker after its VM's migration ended: with no flush
// during the migration, the tracker is found on the dirtied source and
// must move to the destination's list, leaving the source's list
// without it.
func TestFlushRemapsTrackerMigratedBetweenFlushes(t *testing.T) {
	engine := sim.New()
	c := cluster.New(engine, cluster.Config{}, 7, nil)
	jt := NewJobTracker(engine, dfs.New(engine, 7, nil), Config{CapacityAware: true}, nil, nil, "")
	hosts := c.AddPMs("pm", 3)
	vms, err := c.SpreadVMs("vm", 6, hosts, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms {
		jt.AddTracker(vm)
	}
	jt.flushDirty()
	src, dst := vms[0].Machine(), hosts[2]
	if err := c.Migrate(vms[0], dst, nil); err != nil {
		t.Fatal(err)
	}
	engine.Run() // no jobs, so nothing flushes until the migration ends
	if vms[0].Machine() != dst {
		t.Fatalf("vm-0 on %v after migration, want %s", vms[0].Machine(), dst.Name())
	}
	jt.flushDirty()
	for _, pm := range hosts {
		for _, tr := range jt.pms[pm.Index()].trackers {
			if tr == nil || tr.Compute.Machine() != pm || tr.pm != pm {
				t.Fatalf("%s lists a tracker it does not back: %v", pm.Name(), tr)
			}
		}
	}
	if got, want := len(jt.pms[src.Index()].trackers), 1; got != want {
		t.Errorf("%s lists %d trackers after vm-0 left, want %d", src.Name(), got, want)
	}
	if got, want := len(jt.pms[dst.Index()].trackers), 3; got != want {
		t.Errorf("%s lists %d trackers after vm-0 arrived, want %d", dst.Name(), got, want)
	}
	for _, tr := range jt.trackers {
		if got, want := tr.pressure, trackerPressure(tr); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s caches pressure %v, fresh %v", tr.Compute.Name(), got, want)
		}
	}
}
