package mapred

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
			snapM = jt.freeMaps.appendTo(nil)
		}
		if jt.schedulableReds > 0 {
			snapR = jt.freeReds.appendTo(nil)
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
				} else if jt.freeLess(snapM[mi], snapR[ri]) {
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
// load changes that re-key pressures, trackers disabled and re-enabled —
// scheduling one with schedule()'s live walk and the other with the
// snapshot reference. Every call must probe the same (tracker, kind)
// sequence and leave the same attempts running.
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
	}

	live, ref := newRig(), newRig()
	multi := 0
	for step := 0; step < 120; step++ {
		churn(live, step)
		churn(ref, step)
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
	}
	if multi < 20 {
		t.Fatalf("only %d steps probed more than one tracker; the comparison is too tame", multi)
	}
}

// TestFreeSetAfterZeroAlloc pins the live walk's step allocation-free.
func TestFreeSetAfterZeroAlloc(t *testing.T) {
	_, jt := rig(t, 3*freeBlockMax+17, Config{CapacityAware: true}, nil)
	trackers := jt.Trackers()
	if allocs := testing.AllocsPerRun(100, func() {
		for tr := jt.freeMaps.first(); tr != nil; tr = jt.freeMaps.after(tr) {
		}
		jt.freeReds.after(trackers[len(trackers)/2])
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
	c := cluster.New(engine, cluster.DefaultConfig(), 7, nil)
	ps := perfstat.New()
	jt := NewJobTracker(engine, dfs.New(engine, dfs.Config{}, 7, nil), Config{CapacityAware: true}, nil, &obs.Sinks{Perf: ps}, "")
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
			visits += int64(len(jt.pmTrackers[pm]))
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
