package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/profiler"
	"repro/internal/resource"
	"repro/internal/testbed"
	"repro/internal/trace"
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
		MapredConfig: mapred.Config{SlotCaps: true},
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
			drm := NewDRM(rig.JT, modes, nil, nil)
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
			drm := NewDRM(rig.JT, modes, nil, nil)
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
			ips = NewIPS(rig.Cluster, rig.JT, nil, nil)
			ips.Watch(svc)
			ips.Start()
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
	placer := &policy.ProfilingPlacer{
		Profiler:     newTestProfiler(),
		NativeNodes:  8,
		VirtualNodes: 16,
	}
	sort := workload.Sort().WithInputMB(4096)
	// Impossible deadline: virtual estimate exceeds it -> native.
	got, _, _, err := placer.Place(sort, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != PlacedNative {
		t.Errorf("tight deadline placed %v, want native", got)
	}
	// Generous deadline -> virtual.
	got, _, _, err = placer.Place(sort, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got != PlacedVirtual {
		t.Errorf("loose deadline placed %v, want virtual", got)
	}
}

func TestProfilingPlacerOverheadRouting(t *testing.T) {
	placer := &policy.ProfilingPlacer{
		Profiler:          newTestProfiler(),
		NativeNodes:       8,
		VirtualNodes:      16,
		OverheadThreshold: 0.10,
	}
	// Sort is I/O bound: virtualization inflates it beyond 10%.
	got, _, _, err := placer.Place(workload.Sort().WithInputMB(4096), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != PlacedNative {
		t.Errorf("I/O-bound job placed %v, want native under 10%% threshold", got)
	}
	// PiEst is CPU bound: overhead is small, stays virtual.
	got, _, _, err = placer.Place(workload.PiEst(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != PlacedVirtual {
		t.Errorf("CPU-bound job placed %v, want virtual", got)
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
	sys, err := NewSystem(rig.Cluster, nativeJT, rig.JT, Config{TrainingSeed: 21}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	svc, err := sys.DeployService(workload.RUBiS(), rig.VMs[1])
	if err != nil {
		t.Fatal(err)
	}
	svc.SetClients(1000)
	job, _, err := sys.SubmitJob(workload.Sort().WithInputMB(2048), 0, nil)
	if err != nil {
		t.Fatal(err)
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
	if _, err := NewSystem(rig.Cluster, nil, nil, Config{}, nil); err == nil {
		t.Error("NewSystem with no partitions succeeded")
	}
}

func TestSystemFallsBackWhenPartitionMissing(t *testing.T) {
	rig := virtualRig(t, 4)
	// Force a native decision; the system must degrade to virtual.
	set, err := policy.Spec{Phase1: "static-native"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(rig.Cluster, nil, rig.JT, Config{Policies: set, TrainingSeed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
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
	reg := trace.NewRegistry()
	log := audit.New(0)
	ips := NewIPS(rig.Cluster, rig.JT, nil, &obs.Sinks{Metrics: reg, Audit: log})
	ips.Watch(svc)
	ips.Start()
	if _, err := rig.JT.Submit(workload.Sort().WithInputMB(1024), nil); err != nil {
		t.Fatal(err)
	}
	rig.Engine.RunUntil(10 * time.Minute)
	ips.Stop()
	if log.Dropped() != 0 {
		t.Fatalf("audit ring dropped %d records", log.Dropped())
	}
	perKind := map[string]float64{}
	for _, r := range log.Filter(func(r audit.Record) bool { return r.Subsystem == "ips" }) {
		switch r.Action {
		case "relocate", "throttle", "pause", "resume", "migrate", "blacklist", "unblacklist":
		default:
			t.Errorf("unknown action kind %q", r.Action)
		}
		if r.Subject == "" || !strings.Contains(r.Reason, svc.Spec().Name) {
			t.Errorf("incomplete action record: %+v", r)
		}
		perKind[r.Action]++
	}
	if len(perKind) == 0 {
		t.Error("IPS took no actions despite heavy collocation")
	}
	// Each kind's ips.actions.<kind> counter equals its audit count, in
	// both directions, so the counters sum to every action taken.
	for kind, n := range perKind {
		if got := reg.Counter("ips.actions." + kind).Value(); got != n {
			t.Errorf("ips.actions.%s = %v, want %v (the audit log's count)", kind, got, n)
		}
	}
	for name, v := range reg.Snapshot().Counters {
		if kind, ok := strings.CutPrefix(name, "ips.actions."); ok && perKind[kind] != v {
			t.Errorf("%s = %v, but the audit log holds %v such actions", name, v, perKind[kind])
		}
	}
}

// TestDRMRecordsIntoSinks runs the DRM with a metrics registry in its
// sinks handle: its cap changes are counted there.
func TestDRMRecordsIntoSinks(t *testing.T) {
	rig := virtualRig(t, 4)
	reg := trace.NewRegistry()
	drm := NewDRM(rig.JT, AllModes(), nil, &obs.Sinks{Metrics: reg})
	job, err := rig.JT.Submit(workload.Sort().WithInputMB(2048), nil)
	if err != nil {
		t.Fatal(err)
	}
	drm.Start()
	rig.Engine.Run()
	if !job.Done() {
		t.Fatal("job incomplete")
	}
	if got := reg.Counter("drm.cap_adjustments").Value(); got == 0 {
		t.Error("drm.cap_adjustments = 0: the DRM recorded no cap change")
	}
}

// TestDRMForgetsEndedDeferrals kills an attempt the memory balancer has
// deferred: the next epoch drops its entry, so the deferral map does not
// keep the ended attempt alive for the rest of the run, and a later
// attempt that reuses its consumer does not inherit the deferral.
func TestDRMForgetsEndedDeferrals(t *testing.T) {
	rig := virtualRig(t, 4)
	drm := NewDRM(rig.JT, AllModes(), nil, nil)
	if _, err := rig.JT.Submit(workload.Sort().WithInputMB(2048), nil); err != nil {
		t.Fatal(err)
	}
	rig.Engine.RunUntil(30 * time.Second)
	var victim *mapred.Attempt
	rig.JT.EachNodeAttempts(func(_ cluster.Node, attempts []*mapred.Attempt) {
		if victim != nil || len(attempts) < 2 {
			return
		}
		// Room for only the most-progressed attempt: the rest defer.
		drm.balanceMemory(attempts, attempts[0].Consumer().Demand.Get(resource.Memory))
		for _, a := range attempts {
			if drm.deferred[a] {
				victim = a
				return
			}
		}
	})
	if victim == nil {
		t.Fatal("no attempt was deferred")
	}
	c := victim.Consumer()
	c.Kill()
	if !drm.deferred[victim] {
		t.Fatal("the kill itself dropped the entry; the test is vacuous")
	}
	// Run until a later attempt reuses the killed one's consumer.
	var heir *mapred.Attempt
	for heir == nil && rig.Engine.Step() {
		rig.JT.EachRunningAttempt(func(a *mapred.Attempt) {
			if a.Consumer() == c {
				heir = a
			}
		})
	}
	if heir == nil {
		t.Fatal("no later attempt reused the killed attempt's consumer")
	}
	if drm.deferred[heir] {
		t.Error("the attempt reusing a deferred consumer inherited its deferral")
	}
	drm.tick()
	if _, ok := drm.deferred[victim]; ok {
		t.Error("the killed attempt's deferral entry survived a DRM epoch")
	}
}

// newTestProfiler trains on fast mini-sims.
func newTestProfiler() *profiler.Profiler {
	return profiler.New(SimRunner(testbed.Options{Seed: 77}), nil)
}

func TestPlacerValidation(t *testing.T) {
	p := &policy.ProfilingPlacer{}
	if _, _, _, err := p.Place(workload.Sort(), 0); err == nil {
		t.Error("placer without profiler succeeded")
	}
	p = &policy.ProfilingPlacer{Profiler: newTestProfiler(), VirtualNodes: 0, NativeNodes: 4}
	got, _, _, err := p.Place(workload.Sort(), 0)
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

// TestControllerConstants pins the IPS escalation knobs and the DRM hog
// trim, which no registered policy varies, and the rows each controller
// runs: a nil set gives the paper rows, the values the goldens depend
// on, and a resolved set gives its own.
func TestControllerConstants(t *testing.T) {
	if pauseStreak != 3 || maxRelocationsPerEpoch != 2 || throttleFactor != 0.5 {
		t.Errorf("IPS: pause streak %d, relocations per epoch %d, throttle factor %v; want 3, 2, 0.5",
			pauseStreak, maxRelocationsPerEpoch, throttleFactor)
	}
	if hogTrimAbove != 1.5 || hogTrimTo != 1.2 {
		t.Errorf("DRM: hog trim above %v to %v; want 1.5 to 1.2", hogTrimAbove, hogTrimTo)
	}
	if drmEpoch != 5*time.Second || slaInterval != 5*time.Second {
		t.Errorf("DRM epoch %v, IPS interval %v; want the paper's 5s", drmEpoch, slaInterval)
	}
	rig := virtualRig(t, 2)
	if got := NewIPS(rig.Cluster, rig.JT, nil, nil).relocateBelow; got != 0.6 {
		t.Errorf("NewIPS relocation threshold = %v, want paper-ips's 0.6", got)
	}
	if got := NewDRM(rig.JT, AllModes(), nil, nil).policy; !got.Deferral {
		t.Errorf("NewDRM policy = %+v, want paper-drm's deferral", got)
	}
	set, err := policy.Spec{DRM: "static-split", IPS: "throttle-first"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if got := NewIPS(rig.Cluster, rig.JT, set, nil).relocateBelow; got != set.RelocateBelow {
		t.Errorf("NewIPS relocation threshold = %v, want the set's %v", got, set.RelocateBelow)
	}
	if got := NewDRM(rig.JT, AllModes(), set, nil).policy; got.Deferral {
		t.Errorf("NewDRM policy = %+v, want static-split's proportional split", got)
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
	reg := trace.NewRegistry()
	ips := NewIPS(rig.Cluster, rig.JT, nil, &obs.Sinks{Metrics: reg})
	ips.Watch(svc)
	ips.Start()
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
	if reg.Counter("ips.actions.migrate").Value() == 0 {
		t.Log("counters:", reg.Snapshot().Counters)
		t.Skip("no migration triggered at this load; escalation path exercised elsewhere")
	}
}

// TestBestFitTrackerSkipsLostAndSameTask checks the relocation
// destination filter: a lost tracker and a tracker already running an
// attempt of the same task are never chosen, even when nothing else
// qualifies.
func TestBestFitTrackerSkipsLostAndSameTask(t *testing.T) {
	rig := virtualRig(t, 3)
	spec := mapred.JobSpec{Name: "PiEst", FixedMapWork: 600, FixedMapTasks: 1, MapMemMB: 150}
	if _, err := rig.JT.Submit(spec, nil); err != nil {
		t.Fatal(err)
	}
	rig.Engine.RunUntil(time.Second)
	attempts := rig.JT.RunningAttempts()
	if len(attempts) != 1 {
		t.Fatalf("%d attempts running, want 1", len(attempts))
	}
	a := attempts[0]
	ips := NewIPS(rig.Cluster, rig.JT, nil, nil)
	if ips.bestFitTracker(a, a.Node().Machine()) == nil {
		t.Fatal("no destination on an idle fleet")
	}
	// Every other tracker is lost; a's own tracker has a free slot but
	// runs a. Avoid a machine that is not a's.
	var avoid *cluster.PM
	for _, pm := range rig.Cluster.PMs() {
		if pm != a.Node().Machine() {
			avoid = pm
			break
		}
	}
	for _, tr := range rig.JT.Trackers() {
		if tr != a.Tracker && !tr.Lost() {
			rig.JT.HandleNodeLost(tr.Compute)
		}
	}
	if a.Tracker.Lost() || a.Tracker.FreeSlots(mapred.MapTask) == 0 {
		t.Fatal("a's tracker should be live with a free map slot")
	}
	if dst := ips.bestFitTracker(a, avoid); dst != nil {
		t.Fatalf("bestFitTracker chose %s (lost=%v, runs the task=%v)",
			dst.Compute.Name(), dst.Lost(), dst == a.Tracker)
	}
}
