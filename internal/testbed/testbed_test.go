package testbed

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/mapred"
	"repro/internal/workload"
)

func TestNativeRig(t *testing.T) {
	rig, err := New(Options{PMs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rig.Workers) != 4 || len(rig.VMs) != 0 {
		t.Fatalf("native rig: %d workers, %d VMs", len(rig.Workers), len(rig.VMs))
	}
	res, err := rig.RunJob(workload.Sort().WithInputMB(1024))
	if err != nil {
		t.Fatal(err)
	}
	if res.JCT <= 0 || res.Name != "Sort" {
		t.Errorf("bad result: %+v", res)
	}
}

func TestVirtualRigSlowerThanNative(t *testing.T) {
	run := func(vmsPerPM int) float64 {
		rig, err := New(Options{PMs: 4, VMsPerPM: vmsPerPM, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rig.RunJob(workload.Sort().WithInputMB(2048))
		if err != nil {
			t.Fatal(err)
		}
		return res.JCT.Seconds()
	}
	native := run(0)
	virtual := run(1) // same worker count, one VM per PM
	if virtual <= native {
		t.Errorf("virtual Sort (%v) not slower than native (%v)", virtual, native)
	}
	overhead := virtual/native - 1
	if overhead < 0.05 || overhead > 0.60 {
		t.Errorf("virtual overhead %.0f%% outside plausible band", overhead*100)
	}
}

func TestDom0Rig(t *testing.T) {
	run := func(dom0 bool) float64 {
		rig, err := New(Options{PMs: 4, Dom0: dom0, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rig.RunJob(workload.Sort().WithInputMB(2048))
		if err != nil {
			t.Fatal(err)
		}
		return res.JCT.Seconds()
	}
	native := run(false)
	dom0 := run(true)
	// Figure 2(c): Dom-0 is near-native, under ~5% on average across
	// benchmarks. Sort is the worst case (fully disk-bound), so allow a
	// little slack above the average here.
	overhead := dom0/native - 1
	if overhead < 0 || overhead > 0.065 {
		t.Errorf("Dom-0 overhead %.1f%%, want (0, 6.5%%]", overhead*100)
	}
}

func TestSplitRig(t *testing.T) {
	rig, err := New(Options{PMs: 4, VMsPerPM: 2, Split: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rig.Workers) != 8 {
		t.Fatalf("split rig workers = %d, want 8 (two TTs per PM)", len(rig.Workers))
	}
	if len(rig.VMs) != 12 {
		t.Fatalf("split rig VMs = %d, want 12 (2 TT + 1 DN per PM)", len(rig.VMs))
	}
	if _, err := rig.RunJob(workload.Sort().WithInputMB(1024)); err != nil {
		t.Fatal(err)
	}
}

func TestRunJobsConcurrent(t *testing.T) {
	rig, err := New(Options{PMs: 6, VMsPerPM: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	results, err := rig.RunJobs([]mapred.JobSpec{
		workload.Sort().WithInputMB(512),
		workload.Wcount().WithInputMB(512),
		workload.PiEst(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for _, r := range results {
		if r.JCT <= 0 {
			t.Errorf("%s JCT = %v", r.Name, r.JCT)
		}
	}
}

func TestJobSurvivesPMFailure(t *testing.T) {
	rig, err := New(Options{PMs: 6, VMsPerPM: 2, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	job, err := rig.JT.Submit(workload.Sort().WithInputMB(2048), nil)
	if err != nil {
		t.Fatal(err)
	}
	var report dfs.FailureReport
	rig.Engine.After(10*time.Second, func() {
		report = rig.Faults.CrashPM(rig.PMs[2])
	})
	rig.Engine.Run()
	if !job.Done() {
		t.Fatal("job did not survive the machine failure")
	}
	if report.Lost > 0 {
		t.Errorf("%d blocks lost despite 2-way replication across 12 nodes", report.Lost)
	}
	if report.ReReplicated == 0 {
		t.Error("no blocks re-replicated after losing two DataNodes")
	}
	// The failed machine must be empty and off.
	if !rig.PMs[2].Failed() || len(rig.PMs[2].VMs()) != 0 {
		t.Error("failed PM still hosts work")
	}
	// No attempt may still reference the failed machine.
	for _, a := range rig.JT.RunningAttempts() {
		if a.Node().Machine() == rig.PMs[2] {
			t.Errorf("attempt %s still on the failed machine", a.Task.ID())
		}
	}
}

func TestSourceFailureAbortsMigration(t *testing.T) {
	rig, err := New(Options{PMs: 3, VMsPerPM: 1, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	vm := rig.VMs[0]
	landed := false
	if err := rig.Cluster.Migrate(vm, rig.PMs[1], func(cluster.MigrationStats) { landed = true }); err != nil {
		t.Fatal(err)
	}
	// Mid-pre-copy the source crashes: the destination discards the
	// received pages and the VM dies with its source.
	rig.Faults.CrashPM(rig.PMs[0])
	if vm.State() != cluster.VMDestroyed || vm.Machine() != nil {
		t.Errorf("VM after source failure: state=%v machine=%v, want destroyed/nil", vm.State(), vm.Machine())
	}
	rig.Engine.Run()
	if landed {
		t.Error("aborted migration still delivered its completion callback")
	}
	if got := len(rig.PMs[1].VMs()); got != 1 {
		t.Errorf("destination hosts %d VMs, want only its own", got)
	}
}

func TestDestinationFailureRetriesMigration(t *testing.T) {
	rig, err := New(Options{PMs: 3, VMsPerPM: 1, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	vm := rig.VMs[0]
	landed := false
	if err := rig.Cluster.Migrate(vm, rig.PMs[1], func(cluster.MigrationStats) { landed = true }); err != nil {
		t.Fatal(err)
	}
	// Mid-pre-copy the destination crashes: the VM keeps running on its
	// source and the migration retries with backoff.
	rig.Faults.CrashPM(rig.PMs[1])
	if vm.State() != cluster.VMRunning || vm.Machine() != rig.PMs[0] {
		t.Errorf("VM after destination failure: state=%v machine=%v, want running on source", vm.State(), vm.Machine())
	}
	// Repair before the first retry fires; the backoff attempt lands it.
	rig.Engine.After(10*time.Second, func() { rig.PMs[1].PowerOn() })
	rig.Engine.Run()
	if !landed {
		t.Fatal("migration never completed after the destination recovered")
	}
	if vm.Machine() != rig.PMs[1] {
		t.Errorf("VM on %v, want the recovered destination", vm.Machine())
	}
}

func TestNativeClusterFailure(t *testing.T) {
	rig, err := New(Options{PMs: 6, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	job, err := rig.JT.Submit(workload.Wcount().WithInputMB(2048), nil)
	if err != nil {
		t.Fatal(err)
	}
	rig.Engine.After(8*time.Second, func() {
		rig.Faults.CrashPM(rig.PMs[0])
	})
	rig.Engine.Run()
	if !job.Done() {
		t.Fatal("native job did not survive the failure")
	}
}

func TestFailingOffMachineIsNoOp(t *testing.T) {
	rig, err := New(Options{PMs: 3, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.PMs[0].PowerOff(); err != nil {
		t.Fatal(err)
	}
	report := rig.Faults.CrashPM(rig.PMs[0])
	if report.ReReplicated != 0 || report.Lost != 0 {
		t.Errorf("failing an off machine touched the DFS: %+v", report)
	}
	if got := rig.Faults.Injections()[fault.PMCrash]; got != 0 {
		t.Errorf("no-op failure recorded %d pm-crash injections", got)
	}
}

// TestInjectorHoldsNoPointerIntoRig pins the heap trap: an injector
// whose Env.Obs points at rig.Obs keeps the whole rig, worker list
// included, reachable from every deployment that holds the injector.
func TestInjectorHoldsNoPointerIntoRig(t *testing.T) {
	rig, err := New(Options{PMs: 2, NativePMs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rig.Faults.Env().Obs == &rig.Obs {
		t.Fatal("the injector's sink handle points into the rig")
	}
}

func TestHybridRigLayout(t *testing.T) {
	inv := invariant.New()
	rig, err := New(Options{
		PMs: 2, VMsPerPM: 2, NativePMs: 3, Seed: 5, Invariants: inv,
		Faults: &fault.Options{Schedule: []fault.ScheduledFault{
			{At: 10 * time.Second, Kind: fault.PMCrash, Target: "native-0"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pm := range rig.Cluster.PMs() {
		names = append(names, pm.Name())
	}
	if got, want := strings.Join(names, " "), "pm-0 pm-1 native-0 native-1 native-2"; got != want {
		t.Errorf("PMs = %s, want %s", got, want)
	}
	if len(rig.PMs) != 2 || len(rig.Workers) != 4 {
		t.Errorf("own partition: %d PMs, %d workers, want 2 and 4", len(rig.PMs), len(rig.Workers))
	}
	if rig.NativeJT == nil || rig.NativeJT.TrackerCount() != 3 {
		t.Fatalf("NativeJT = %v, want 3 trackers", rig.NativeJT)
	}
	if rig.NativeJT.FS() == nil || rig.NativeJT.FS() == rig.FS {
		t.Error("the native partition shares the rig's DFS")
	}
	env := rig.Faults.Env()
	if len(env.JTs) != 2 || env.JTs[0] != rig.JT || env.JTs[1] != rig.NativeJT ||
		len(env.FSs) != 2 || env.FSs[0] != rig.FS || env.FSs[1] != rig.NativeJT.FS() {
		t.Error("the injector does not span the rig's partition, then the native one")
	}

	// A job left on each JobTracker shows up in the checker's liveness
	// sweep only if the checker watches that tracker.
	if _, err := rig.JT.Submit(workload.PiEst(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.NativeJT.Submit(workload.Sort().WithInputMB(8192), nil); err != nil {
		t.Fatal(err)
	}
	rig.Engine.RunUntil(5 * time.Minute)
	if !rig.NativeJT.Trackers()[0].Lost() {
		t.Error("crashing native-0 did not lose its tracker in NativeJT")
	}
	livelocks := 0
	for _, v := range inv.Final() {
		if v.Name == "job-livelock" {
			livelocks++
		}
	}
	if livelocks != 2 {
		t.Errorf("checker flagged %d unfinished jobs, want one per JobTracker: %v", livelocks, inv.Violations())
	}
}

func TestNativeOnlyRig(t *testing.T) {
	rig, err := New(Options{NativePMs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rig.JT != nil || rig.FS != nil || len(rig.PMs) != 0 {
		t.Errorf("native-only rig built a partition of its own: JT %v, FS %v, %d PMs", rig.JT, rig.FS, len(rig.PMs))
	}
	if n := len(rig.Cluster.PMs()); n != 2 || rig.NativeJT.TrackerCount() != 2 {
		t.Errorf("native-only rig: %d PMs, %d native trackers, want 2 and 2", n, rig.NativeJT.TrackerCount())
	}
	if env := rig.Faults.Env(); len(env.JTs) != 1 || env.JTs[0] != rig.NativeJT {
		t.Error("the injector does not span the native partition alone")
	}

	plain, err := New(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.PMs) != 4 || plain.NativeJT != nil {
		t.Errorf("default rig: %d PMs, NativeJT %v, want 4 and nil", len(plain.PMs), plain.NativeJT)
	}
}
