package mapred

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/resource"
	"repro/internal/sim"
)

// TestConsumerQuarantine pins the pool's one rule: a consumer retired
// during engine event k is not handed out again in event k, where a
// caller may still hold it, and is handed out, reset, in event k+1.
func TestConsumerQuarantine(t *testing.T) {
	engine, jt := rig(t, 1, Config{}, nil)
	var retired *attemptConsumer
	engine.At(time.Second, func() {
		retired = jt.newConsumer(nil, "first", resource.NewVector(1, 100, 0, 0), 5)
		retired.Cap = resource.NewVector(0.5, 0, 0, 0)
		retired.Weight = 3
		jt.pool.retire(retired, engine.Fired())
		if ac := jt.newConsumer(nil, "second", resource.Vector{}, 1); ac == retired {
			t.Error("a consumer was handed out in the event that retired it")
		}
	})
	engine.At(2*time.Second, func() {
		demand := resource.NewVector(2, 50, 0, 0)
		ac := jt.newConsumer(nil, "third", demand, 7)
		if ac != retired {
			t.Fatal("the retired consumer was not handed out in the next event")
		}
		if ac.Name != "third" || ac.Demand != demand || ac.Work != 7 || ac.Weight != 0 || ac.Cap != (resource.Vector{}) {
			t.Errorf("reused consumer not reset: %+v", ac.Consumer)
		}
	})
	engine.Run()
	if retired == nil {
		t.Fatal("the retiring event never fired")
	}
}

// TestMachineFailureKillsOnlyItsVictims crashes a machine running
// several attempts inside an engine event. The victims loop kills them
// one by one, and each kill re-queues a task that relaunches on a
// healthy machine within the same event: none of those launches may be
// handed a consumer the loop still holds, so every victim ends killed,
// every relaunch stays running, and no two running attempts share a
// consumer.
func TestMachineFailureKillsOnlyItsVictims(t *testing.T) {
	engine, jt := rig(t, 4, Config{MapSlots: 2, DisableSpeculation: true}, nil)
	spec := piLike()
	spec.Reduces = 0
	spec.FixedMapTasks = 6 // three machines busy, one idle
	spec.FixedMapWork = 300
	job, err := jt.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A short job fills the pool with retired consumers.
	warm := piLike()
	warm.Reduces = 0
	warm.FixedMapWork = 1
	engine.RunUntil(10 * time.Second)
	if _, err := jt.Submit(warm, nil); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(60 * time.Second)

	failed := jt.Trackers()[0].Compute.(*cluster.PM)
	var victims, launched []*Attempt
	before := map[*Attempt]bool{}
	for _, a := range jt.RunningAttempts() {
		before[a] = true
		if a.Node() == cluster.Node(failed) {
			victims = append(victims, a)
		}
	}
	if len(victims) < 2 {
		t.Fatalf("%d attempts on the failing machine, want several", len(victims))
	}
	engine.At(engine.Now()+time.Second, func() {
		if err := failed.Fail(); err != nil {
			t.Fatal(err)
		}
		for _, a := range jt.RunningAttempts() {
			if !before[a] {
				launched = append(launched, a)
			}
		}
	})
	engine.RunUntil(engine.Now() + time.Second)

	for _, a := range victims {
		if !a.killed {
			t.Errorf("%s survived its machine's failure", a.Task.ID())
		}
	}
	if len(launched) == 0 {
		t.Fatal("no attempt relaunched during the failure; the test is vacuous")
	}
	for _, a := range launched {
		if !a.Running() {
			t.Errorf("%s, launched during the failure, was killed", a.Consumer().Name)
		}
	}
	owner := map[*cluster.Consumer]*Attempt{}
	for _, a := range jt.RunningAttempts() {
		c := a.Consumer()
		if !c.Running() || c.Node() != a.Tracker.Compute {
			t.Errorf("%s: consumer not running on its tracker", c.Name)
		}
		if other, dup := owner[c]; dup {
			t.Errorf("%s and %s share a consumer", other.Task.ID(), a.Task.ID())
		}
		owner[c] = a
	}
	jt.HandleMachineFailures([]*cluster.PM{failed})
	engine.Run()
	if !job.Done() {
		t.Fatal("job did not recover from the failure")
	}
}

// TestMachineFailureSparesItsVMs is the virtual-cluster case: a machine
// that fails inside an event kills the attempts on its VMs, and the
// re-queued tasks must relaunch on VMs of live machines. A relaunch onto
// a VM of the failing machine would sit Running on a destroyed VM until
// the heartbeat timeout declared its tracker lost.
func TestMachineFailureSparesItsVMs(t *testing.T) {
	engine := sim.New()
	c := cluster.New(engine, cluster.Config{}, 7, nil)
	jt := NewJobTracker(engine, dfs.New(engine, 7, nil), Config{DisableSpeculation: true}, nil, nil, "")
	hosts := c.AddPMs("pm", 3)
	vms, err := c.SpreadVMs("vm", 6, hosts, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms {
		jt.AddTracker(vm)
	}
	spec := piLike()
	spec.Reduces = 0
	spec.FixedMapTasks = 6
	spec.FixedMapWork = 300
	job, err := jt.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(10 * time.Second)

	failed := hosts[0]
	victims := 0
	for _, a := range jt.RunningAttempts() {
		if a.Node().Machine() == failed {
			victims++
		}
	}
	if victims == 0 {
		t.Fatal("no attempt on the failing machine; the test is vacuous")
	}
	engine.At(engine.Now()+time.Second, func() {
		if err := failed.Fail(); err != nil {
			t.Fatal(err)
		}
		for _, a := range jt.RunningAttempts() {
			if pm := a.Node().Machine(); pm == nil || pm.Off() {
				t.Errorf("%s runs on %s, whose machine is down", a.Consumer().Name, a.Node().Name())
			}
		}
	})
	engine.RunUntil(engine.Now() + time.Second)
	jt.HandleMachineFailures([]*cluster.PM{failed})
	engine.Run()
	if !job.Done() {
		t.Fatal("job did not complete after the failure")
	}
}

// TestAttemptLifecycleAllocs pins what one steady-state attempt costs
// the heap, launch to completion, on the one-slot rig of
// BenchmarkAttemptLifecycle: the Attempt, its name, the task's attempt
// list and the attempt's share of its job's set-up (the tasks are one
// block per job). The consumer, its callbacks and its bound completion
// method are recycled.
func TestAttemptLifecycleAllocs(t *testing.T) {
	engine, jt := rig(t, 1, Config{MapSlots: 1, DisableSpeculation: true}, nil)
	spec := piLike()
	spec.Reduces = 0
	spec.FixedMapWork = 1
	spec.FixedMapTasks = 100
	allocs := testing.AllocsPerRun(10, func() {
		job, err := jt.Submit(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		engine.Run()
		if !job.Done() {
			t.Fatal("job did not finish")
		}
	})
	perAttempt := allocs / float64(spec.FixedMapTasks)
	t.Logf("%.2f allocations per attempt", perAttempt)
	if perAttempt > 4 {
		t.Errorf("%.2f allocations per attempt, want at most 4", perAttempt)
	}
}
