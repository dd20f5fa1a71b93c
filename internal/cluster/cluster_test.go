package cluster

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/trace"
)

// testCluster builds an engine plus a cluster with deterministic config.
func testCluster(t *testing.T) (*sim.Engine, *Cluster) {
	t.Helper()
	engine := sim.New()
	return engine, New(engine, DefaultConfig(), 1, nil)
}

func runConsumer(t *testing.T, engine *sim.Engine, node Node, c *Consumer) time.Duration {
	t.Helper()
	var doneAt time.Duration = -1
	prev := c.OnComplete
	c.OnComplete = func() {
		doneAt = engine.Now()
		if prev != nil {
			prev()
		}
	}
	if err := node.Start(c); err != nil {
		t.Fatalf("Start(%s): %v", c.Name, err)
	}
	engine.Run()
	if doneAt < 0 {
		t.Fatalf("consumer %s never completed", c.Name)
	}
	return doneAt
}

func secs(d time.Duration) float64 { return d.Seconds() }

func TestNativeConsumerFullSpeed(t *testing.T) {
	engine, c := testCluster(t)
	pm := c.AddPM("pm-0")
	con := &Consumer{
		Name:   "t",
		Demand: resource.NewVector(1, 512, 0, 0),
		Work:   100,
	}
	at := runConsumer(t, engine, pm, con)
	if math.Abs(secs(at)-100) > 0.01 {
		t.Errorf("completed at %v, want 100s", secs(at))
	}
	if !con.Done() {
		t.Error("Done() = false")
	}
}

func TestCPUContentionHalvesSpeed(t *testing.T) {
	engine, c := testCluster(t) // 2 cores
	pm := c.AddPM("pm-0")
	// Three consumers each wanting 1 core on a 2-core PM: each gets 2/3.
	var doneAt []float64
	for i := 0; i < 3; i++ {
		con := &Consumer{
			Name:   "t",
			Demand: resource.NewVector(1, 0, 0, 0),
			Work:   100,
		}
		con.OnComplete = func() { doneAt = append(doneAt, secs(engine.Now())) }
		if err := pm.Start(con); err != nil {
			t.Fatal(err)
		}
	}
	engine.Run()
	if len(doneAt) != 3 {
		t.Fatalf("%d completions, want 3", len(doneAt))
	}
	for _, at := range doneAt {
		if math.Abs(at-150) > 0.5 {
			t.Errorf("completed at %vs, want 150s (2 cores / 3 claimants)", at)
		}
	}
}

func TestStaggeredArrivalIntegration(t *testing.T) {
	engine, c := testCluster(t)
	pm := c.AddPM("pm-0")
	cfg := c.Config()
	if cfg.Cores != 2 {
		t.Fatalf("test assumes 2 cores")
	}
	// First consumer runs alone for 50s at full speed, then a second
	// arrives; both want 2 cores, so each gets 1 core (speed 0.5).
	first := &Consumer{Name: "a", Demand: resource.NewVector(2, 0, 0, 0), Work: 100}
	var firstDone float64
	first.OnComplete = func() { firstDone = secs(engine.Now()) }
	if err := pm.Start(first); err != nil {
		t.Fatal(err)
	}
	engine.After(50*time.Second, func() {
		second := &Consumer{Name: "b", Demand: resource.NewVector(2, 0, 0, 0), Work: 100}
		if err := pm.Start(second); err != nil {
			t.Error(err)
		}
	})
	engine.Run()
	// 50s at speed 1 + 50 remaining at speed 0.5 = 100s more → 150s.
	if math.Abs(firstDone-150) > 0.5 {
		t.Errorf("first completed at %vs, want 150s", firstDone)
	}
}

func TestVMGuestOverheadOnIO(t *testing.T) {
	engine, c := testCluster(t)
	pm := c.AddPM("pm-0")
	vm, err := c.AddVM("vm-0", pm, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Disk-bound consumer: demands the full native disk bandwidth, so the
	// guest overhead (0.84) plus a little seek thrash is the bottleneck.
	con := &Consumer{
		Name:   "io",
		Demand: resource.NewVector(0.1, 256, c.Config().DiskMBps, 0),
		Work:   100,
	}
	at := runConsumer(t, engine, vm, con)
	pureOverhead := 100 / XenGuestOverhead().Disk
	if secs(at) < pureOverhead || secs(at) > pureOverhead*1.15 {
		t.Errorf("virtual I/O job took %vs, want within [%v, %v]", secs(at), pureOverhead, pureOverhead*1.15)
	}
}

func TestCrossVMIOContentionSuperlinear(t *testing.T) {
	// Two VMs each running an I/O job must be slower than 2x the fair
	// share alone would predict, because of the Dom-0 inflation.
	mkJCT := func(nVM int) float64 {
		engine := sim.New()
		c := New(engine, DefaultConfig(), 1, nil)
		pm := c.AddPM("pm-0")
		var last float64
		for i := 0; i < nVM; i++ {
			vm, err := c.AddVM("vm", pm, 1, 1024)
			if err != nil {
				panic(err)
			}
			con := &Consumer{
				Name:   "io",
				Demand: resource.NewVector(0.1, 0, c.Config().DiskMBps, 0),
				Work:   100,
			}
			con.OnComplete = func() { last = engine.Now().Seconds() }
			if err := vm.Start(con); err != nil {
				panic(err)
			}
		}
		engine.Run()
		return last
	}
	one := mkJCT(1)
	two := mkJCT(2)
	// Fair sharing alone would give 2x; Dom-0 stream inflation plus seek
	// thrashing push it well beyond, but the thrash floor bounds it.
	if two <= 2.1*one {
		t.Errorf("2-VM I/O JCT %v not superlinear vs 1-VM %v", two, one)
	}
	if two > 5*one {
		t.Errorf("2-VM JCT %v implausibly bad vs 1-VM %v", two, one)
	}
}

func TestMemoryOvercommitThrashing(t *testing.T) {
	engine, c := testCluster(t)
	pm := c.AddPM("pm-0")
	vm, err := c.AddVM("vm-0", pm, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Two consumers each wanting 800 MB in a 1 GB VM: 1600/1024 = 1.5625
	// overcommit slows both beyond pure CPU sharing.
	var doneAt float64
	for i := 0; i < 2; i++ {
		con := &Consumer{
			Name:   "m",
			Demand: resource.NewVector(0.4, 800, 0, 0),
			Work:   50,
		}
		con.OnComplete = func() { doneAt = secs(engine.Now()) }
		if err := vm.Start(con); err != nil {
			t.Fatal(err)
		}
	}
	engine.Run()
	// Without thrashing both would finish at ~50/0.95 (CPU overhead only,
	// no CPU contention: 0.8 cores total demand on 1 vcpu).
	noThrash := 50 / XenGuestOverhead().CPU
	if doneAt <= noThrash*1.2 {
		t.Errorf("overcommitted JCT %v shows no thrashing (baseline %v)", doneAt, noThrash)
	}
}

func TestConsumerCapThrottles(t *testing.T) {
	engine, c := testCluster(t)
	pm := c.AddPM("pm-0")
	con := &Consumer{
		Name:   "capped",
		Demand: resource.NewVector(1, 0, 0, 0),
		Work:   100,
		Cap:    resource.NewVector(0.5, 0, 0, 0),
	}
	at := runConsumer(t, engine, pm, con)
	if math.Abs(secs(at)-200) > 0.5 {
		t.Errorf("capped consumer took %vs, want 200s", secs(at))
	}
}

func TestSetCapMidFlight(t *testing.T) {
	engine, c := testCluster(t)
	pm := c.AddPM("pm-0")
	con := &Consumer{Name: "x", Demand: resource.NewVector(1, 0, 0, 0), Work: 100}
	var doneAt float64
	con.OnComplete = func() { doneAt = secs(engine.Now()) }
	if err := pm.Start(con); err != nil {
		t.Fatal(err)
	}
	engine.After(50*time.Second, func() {
		con.SetCap(resource.NewVector(0.25, 0, 0, 0))
	})
	engine.Run()
	// 50s at speed 1, then 50 work left at speed 0.25 → +200s = 250s.
	if math.Abs(doneAt-250) > 0.5 {
		t.Errorf("completed at %vs, want 250s", doneAt)
	}
}

func TestVMPauseResume(t *testing.T) {
	engine, c := testCluster(t)
	pm := c.AddPM("pm-0")
	vm, err := c.AddVM("vm-0", pm, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	con := &Consumer{Name: "x", Demand: resource.NewVector(0.5, 0, 0, 0), Work: 95}
	var doneAt float64
	con.OnComplete = func() { doneAt = secs(engine.Now()) }
	if err := vm.Start(con); err != nil {
		t.Fatal(err)
	}
	engine.After(10*time.Second, func() {
		if err := vm.Pause(); err != nil {
			t.Error(err)
		}
	})
	engine.After(60*time.Second, func() {
		if err := vm.Resume(); err != nil {
			t.Error(err)
		}
	})
	engine.Run()
	// Demand 0.5 core on a 1-vCPU VM is unsaturated, so the guest runs at
	// full speed: 95s of work plus 50s paused = 145s.
	if math.Abs(doneAt-145) > 0.5 {
		t.Errorf("completed at %vs, want 145s", doneAt)
	}
	if vm.State() != VMRunning {
		t.Errorf("state = %v, want running", vm.State())
	}
}

func TestKillInvokesCallbackAndFrees(t *testing.T) {
	engine, c := testCluster(t)
	pm := c.AddPM("pm-0")
	a := &Consumer{Name: "a", Demand: resource.NewVector(2, 0, 0, 0), Work: 100}
	b := &Consumer{Name: "b", Demand: resource.NewVector(2, 0, 0, 0), Work: 100}
	killed := false
	a.OnKilled = func() { killed = true }
	var bDone float64
	b.OnComplete = func() { bDone = secs(engine.Now()) }
	if err := pm.Start(a); err != nil {
		t.Fatal(err)
	}
	if err := pm.Start(b); err != nil {
		t.Fatal(err)
	}
	engine.After(50*time.Second, a.Kill)
	engine.Run()
	if !killed || !a.Killed() {
		t.Error("kill callback/state missing")
	}
	// b: 50s at half speed (25 done), then full speed for 75 → 125s.
	if math.Abs(bDone-125) > 0.5 {
		t.Errorf("b completed at %vs, want 125s", bDone)
	}
}

func TestDoubleStartFails(t *testing.T) {
	_, c := testCluster(t)
	pm := c.AddPM("pm-0")
	con := &Consumer{Name: "x", Demand: resource.NewVector(1, 0, 0, 0), Work: 10}
	if err := pm.Start(con); err != nil {
		t.Fatal(err)
	}
	if err := pm.Start(con); err == nil {
		t.Error("second Start succeeded")
	}
}

func TestAddVMMemoryExhaustion(t *testing.T) {
	_, c := testCluster(t) // 4096 MB hosts
	pm := c.AddPM("pm-0")
	if _, err := c.AddVM("vm-0", pm, 1, 3000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVM("vm-1", pm, 1, 2000); err == nil {
		t.Error("overcommitted AddVM succeeded")
	}
	if _, err := c.AddVM("vm-bad", pm, 0, 100); err == nil {
		t.Error("zero-vcpu AddVM succeeded")
	}
	if _, err := c.AddVM("vm-bad", nil, 1, 100); err == nil {
		t.Error("nil-host AddVM succeeded")
	}
}

func TestDom0ModeSmallOverhead(t *testing.T) {
	run := func(dom0 bool) float64 {
		engine := sim.New()
		c := New(engine, DefaultConfig(), 1, nil)
		pm := c.AddPM("pm-0")
		pm.SetDom0Mode(dom0)
		// Saturate the disk so that the Dom-0 efficiency binds; overhead
		// only appears when the device has no headroom to absorb it.
		con := &Consumer{
			Name:   "x",
			Demand: resource.NewVector(1, 0, DefaultConfig().DiskMBps, 0),
			Work:   100,
		}
		var done float64
		con.OnComplete = func() { done = secs(engine.Now()) }
		if err := pm.Start(con); err != nil {
			panic(err)
		}
		engine.Run()
		return done
	}
	native := run(false)
	dom0 := run(true)
	overhead := dom0/native - 1
	if overhead <= 0 || overhead > 0.05 {
		t.Errorf("Dom-0 overhead = %.1f%%, want (0, 5%%]", overhead*100)
	}
}

func TestPowerModel(t *testing.T) {
	engine, c := testCluster(t)
	pm := c.AddPM("pm-0")
	cfg := c.Config()
	if got := pm.PowerW(); got != cfg.PowerIdleW {
		t.Errorf("idle power = %v, want %v", got, cfg.PowerIdleW)
	}
	con := &Consumer{Name: "x", Demand: resource.NewVector(2, 0, 0, 0), Work: 1000}
	if err := pm.Start(con); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(time.Second)
	if got := pm.PowerW(); math.Abs(got-cfg.PowerPeakW) > 1 {
		t.Errorf("busy power = %v, want ~%v", got, cfg.PowerPeakW)
	}
	if got := c.FleetStats().PowerW; math.Abs(got-pm.PowerW()) > 1e-9 {
		t.Errorf("fleet power = %v, want %v", got, pm.PowerW())
	}
}

func TestPowerOff(t *testing.T) {
	_, c := testCluster(t)
	pm := c.AddPM("pm-0")
	con := &Consumer{Name: "x", Demand: resource.NewVector(1, 0, 0, 0), Work: 10}
	if err := pm.Start(con); err != nil {
		t.Fatal(err)
	}
	if err := pm.PowerOff(); err == nil {
		t.Error("PowerOff succeeded with a running consumer")
	}
	con.Stop()
	if err := pm.PowerOff(); err != nil {
		t.Errorf("PowerOff: %v", err)
	}
	if pm.PowerW() != 0 {
		t.Errorf("powered-off PM draws %v W", pm.PowerW())
	}
	if err := pm.Start(con); err == nil {
		t.Error("Start succeeded on powered-off PM")
	}
	if c.PoweredOnPMs() != 0 {
		t.Errorf("PoweredOnPMs = %d, want 0", c.PoweredOnPMs())
	}
	pm.PowerOn()
	if c.PoweredOnPMs() != 1 {
		t.Errorf("PoweredOnPMs = %d, want 1", c.PoweredOnPMs())
	}
}

func TestUtilizationReporting(t *testing.T) {
	engine, c := testCluster(t)
	pm := c.AddPM("pm-0")
	con := &Consumer{Name: "x", Demand: resource.NewVector(1, 1024, 45, 0), Work: 1000}
	if err := pm.Start(con); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(time.Second)
	u := pm.Utilization()
	if math.Abs(u.Get(resource.CPU)-0.5) > 0.01 {
		t.Errorf("cpu util = %v, want 0.5", u.Get(resource.CPU))
	}
	if math.Abs(u.Get(resource.DiskIO)-0.5) > 0.01 {
		t.Errorf("disk util = %v, want 0.5", u.Get(resource.DiskIO))
	}
	if got := c.FleetStats().Util.Get(resource.CPU); math.Abs(got-0.5) > 0.01 {
		t.Errorf("fleet mean cpu util = %v, want 0.5", got)
	}
}

func TestMigrationMovesVM(t *testing.T) {
	engine, c := testCluster(t)
	src := c.AddPM("pm-src")
	dst := c.AddPM("pm-dst")
	vm, err := c.AddVM("vm-0", src, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	con := &Consumer{Name: "x", Demand: resource.NewVector(0.5, 256, 0, 0), Work: 500}
	var conDone float64
	con.OnComplete = func() { conDone = secs(engine.Now()) }
	if err := vm.Start(con); err != nil {
		t.Fatal(err)
	}
	var stats MigrationStats
	gotStats := false
	engine.After(10*time.Second, func() {
		if err := c.Migrate(vm, dst, func(s MigrationStats) {
			stats = s
			gotStats = true
		}); err != nil {
			t.Error(err)
		}
	})
	engine.Run()
	if !gotStats {
		t.Fatal("migration never completed")
	}
	if vm.Machine() != dst {
		t.Errorf("VM on %s, want %s", vm.Machine().Name(), dst.Name())
	}
	if stats.Downtime <= 0 {
		t.Error("downtime should be positive")
	}
	if stats.TotalTime < stats.Downtime {
		t.Error("total time less than downtime")
	}
	if stats.TransferredMB < vm.MemoryMB() {
		t.Errorf("transferred %v MB, want >= guest memory %v", stats.TransferredMB, vm.MemoryMB())
	}
	if conDone == 0 {
		t.Error("consumer never finished after migration")
	}
	if len(src.VMs()) != 0 || len(dst.VMs()) != 1 {
		t.Errorf("VM lists wrong: src=%d dst=%d", len(src.VMs()), len(dst.VMs()))
	}
}

func TestMigrationBusyVMTakesLonger(t *testing.T) {
	migTime := func(busy bool) time.Duration {
		engine := sim.New()
		c := New(engine, DefaultConfig(), 1, nil)
		src := c.AddPM("s")
		dst := c.AddPM("d")
		vm, err := c.AddVM("vm", src, 1, 1024)
		if err != nil {
			panic(err)
		}
		if busy {
			con := &Consumer{Name: "w", Demand: resource.NewVector(1, 700, 20, 0), Work: 10_000}
			if err := vm.Start(con); err != nil {
				panic(err)
			}
		}
		var total time.Duration
		if err := c.Migrate(vm, dst, func(s MigrationStats) { total = s.TotalTime }); err != nil {
			panic(err)
		}
		engine.RunUntil(2 * time.Hour)
		return total
	}
	idle := migTime(false)
	busy := migTime(true)
	if idle <= 0 || busy <= 0 {
		t.Fatalf("migrations did not finish: idle=%v busy=%v", idle, busy)
	}
	if busy <= idle {
		t.Errorf("busy migration (%v) not longer than idle (%v)", busy, idle)
	}
}

func TestMigrationValidation(t *testing.T) {
	_, c := testCluster(t)
	src := c.AddPM("s")
	dst := c.AddPM("d")
	vm, err := c.AddVM("vm", src, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate(vm, src, nil); err == nil {
		t.Error("migration to same host succeeded")
	}
	if err := c.Migrate(nil, dst, nil); err == nil {
		t.Error("nil VM migration succeeded")
	}
	full := c.AddPM("full")
	if _, err := c.AddVM("big", full, 1, 4000); err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate(vm, full, nil); err == nil {
		t.Error("migration to memory-exhausted host succeeded")
	}
	if err := dst.PowerOff(); err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate(vm, dst, nil); err == nil {
		t.Error("migration to powered-off host succeeded")
	}
}

func TestSpreadVMs(t *testing.T) {
	_, c := testCluster(t)
	pms := c.AddPMs("pm", 4)
	vms, err := c.SpreadVMs("vm", 8, pms, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(vms) != 8 {
		t.Fatalf("got %d VMs, want 8", len(vms))
	}
	for _, pm := range pms {
		if got := len(pm.VMs()); got != 2 {
			t.Errorf("%s hosts %d VMs, want 2", pm.Name(), got)
		}
	}
	if _, err := c.SpreadVMs("vm", 2, nil, 1, 64); err == nil {
		t.Error("SpreadVMs with no hosts succeeded")
	}
}

func TestOpenEndedConsumerNeverCompletes(t *testing.T) {
	engine, c := testCluster(t)
	pm := c.AddPM("pm-0")
	svc := &Consumer{
		Name:   "svc",
		Demand: resource.NewVector(0.5, 512, 0, 0),
		Work:   OpenEnded,
		OnComplete: func() {
			t.Error("open-ended consumer completed")
		},
	}
	if err := pm.Start(svc); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(time.Hour)
	if !svc.Running() {
		t.Error("open-ended consumer stopped")
	}
	if svc.Remaining() != OpenEnded {
		t.Errorf("Remaining = %v, want OpenEnded", svc.Remaining())
	}
	svc.Stop()
	if svc.Running() {
		t.Error("Stop did not detach")
	}
}

func TestVMWeightSharing(t *testing.T) {
	engine, c := testCluster(t)
	pm := c.AddPM("pm-0")
	vm1, err := c.AddVM("vm-1", pm, 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	vm2, err := c.AddVM("vm-2", pm, 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	vm2.SetWeight(6) // 3x vm1's weight of 2
	mk := func() *Consumer {
		return &Consumer{Name: "x", Demand: resource.NewVector(2, 0, 0, 0), Work: 100}
	}
	a, b := mk(), mk()
	if err := vm1.Start(a); err != nil {
		t.Fatal(err)
	}
	if err := vm2.Start(b); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(time.Second)
	// 2 cores split 1:3 → 0.5 vs 1.5 raw.
	ra := a.Alloc().Get(resource.CPU)
	rb := b.Alloc().Get(resource.CPU)
	if math.Abs(rb/ra-3) > 0.05 {
		t.Errorf("alloc ratio = %v, want 3 (a=%v b=%v)", rb/ra, ra, rb)
	}
}

func TestVMCapLimitsIO(t *testing.T) {
	engine, c := testCluster(t)
	pm := c.AddPM("pm-0")
	vm, err := c.AddVM("vm-0", pm, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	vm.SetCap(resource.NewVector(0, 0, 10, 0))
	con := &Consumer{Name: "io", Demand: resource.NewVector(0.1, 0, 50, 0), Work: 100}
	var done float64
	con.OnComplete = func() { done = secs(engine.Now()) }
	if err := vm.Start(con); err != nil {
		t.Fatal(err)
	}
	engine.Run()
	// Useful disk rate capped at 10*0.84 = 8.4 MB/s against a 50 MB/s
	// demand → speed 0.168 → ~595s.
	want := 100 / (10 * XenGuestOverhead().Disk / 50)
	if math.Abs(done-want) > 5 {
		t.Errorf("capped VM I/O JCT = %v, want ~%v", done, want)
	}
}

func TestClusterMetricsInstrumentation(t *testing.T) {
	engine := sim.New()
	tr := trace.New(engine)
	reg := trace.NewRegistry()
	c := New(engine, DefaultConfig(), 1, &obs.Sinks{Tracer: tr, Metrics: reg})

	src := c.AddPM("pm-src")
	dst := c.AddPM("pm-dst")
	spare := c.AddPM("pm-spare")
	vm, err := c.AddVM("vm-0", src, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	engine.After(10*time.Second, func() {
		if err := c.Migrate(vm, dst, func(MigrationStats) { done = true }); err != nil {
			t.Error(err)
		}
	})
	engine.Run()
	if !done {
		t.Fatal("migration never completed")
	}
	if err := spare.PowerOff(); err != nil {
		t.Fatal(err)
	}
	spare.PowerOn()

	if got := reg.Counter("cluster.migrations.completed").Value(); got != 1 {
		t.Errorf("migrations counter = %v, want 1", got)
	}
	h := reg.Histogram("cluster.migration.downtime_sec")
	if h.Count() != 1 {
		t.Fatalf("downtime histogram count = %d, want 1", h.Count())
	}
	if h.Max() <= 0 {
		t.Errorf("downtime histogram max = %v, want > 0", h.Max())
	}
	if got := reg.Counter("cluster.pm.power_transitions").Value(); got != 2 {
		t.Errorf("power transitions = %v, want 2 (off + on)", got)
	}
	if tr.Len() == 0 {
		t.Error("tracer recorded no events")
	}
}
