package cluster

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/resource"
	"repro/internal/sim"
)

// solveRig builds one PM running native consumers beside two VMs with
// consumers of their own — one capped, one paging under a memory cap —
// so a re-solve walks both levels of the fair-share kernel, the I/O
// inflation, the memory penalties and the completion rescheduling.
func solveRig(tb testing.TB, perVM int) *PM {
	tb.Helper()
	engine := sim.New()
	c := New(engine, Config{}, 1, nil)
	pm := c.AddPM("pm")
	for i := 0; i < 2; i++ {
		if err := pm.Start(&Consumer{
			Name:   fmt.Sprintf("native-%d", i),
			Demand: resource.NewVector(0.5, 256, 30, 10),
			Work:   1e6,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	for v := 0; v < 2; v++ {
		vm, err := c.AddVM(fmt.Sprintf("vm-%d", v), pm, 1, 1024)
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < perVM; i++ {
			cons := &Consumer{
				Name:   fmt.Sprintf("vm-%d-c%d", v, i),
				Demand: resource.NewVector(0.6, 400, 25, 20),
				Work:   1e6,
			}
			switch i % 3 {
			case 1:
				cons.Cap = resource.NewVector(0.3, 0, 10, 0)
			case 2:
				cons.Cap = resource.NewVector(0, 200, 0, 0)
			}
			if err := vm.Start(cons); err != nil {
				tb.Fatal(err)
			}
		}
	}
	// Warm the scratch buffers, the flush list and the engine's
	// deferred-callback list.
	for i := 0; i < 2000; i++ {
		updateAndFlush(pm)
	}
	return pm
}

// updateAndFlush requests a re-solve of pm and has the engine flush it
// without moving the clock: one full settle, solve and completion
// re-key.
func updateAndFlush(pm *PM) {
	pm.update()
	engine := pm.cluster.engine
	engine.RunUntil(engine.Now())
}

// TestPMUpdateZeroAlloc pins the steady-state re-solve: with the
// consumer set unchanged, settling, solving and re-keying completions
// reuse the cluster's scratch, the flush list and the events in the
// engine's queue.
func TestPMUpdateZeroAlloc(t *testing.T) {
	pm := solveRig(t, 3)
	if allocs := testing.AllocsPerRun(200, func() { updateAndFlush(pm) }); allocs != 0 {
		t.Errorf("PM.update plus flush allocates %.1f times per re-solve, want 0", allocs)
	}
}

// TestTopologyGenTracksPlacementChanges checks that every change to
// where a VM runs, or to a rack label, moves the cluster's topology
// generation, and that consumer churn does not.
func TestTopologyGenTracksPlacementChanges(t *testing.T) {
	engine, c := testCluster(t)
	pms := c.AddPMs("pm", 3)
	step := func(what string, wantBump bool, fn func()) {
		t.Helper()
		before := c.TopologyGen()
		fn()
		if bumped := c.TopologyGen() != before; bumped != wantBump {
			t.Errorf("%s: generation bumped = %v, want %v", what, bumped, wantBump)
		}
	}
	var vm, other *VM
	step("AddVM", true, func() {
		var err error
		if vm, err = c.AddVM("vm-0", pms[0], 1, 1024); err != nil {
			t.Fatal(err)
		}
		if other, err = c.AddVM("vm-1", pms[1], 1, 1024); err != nil {
			t.Fatal(err)
		}
	})
	step("consumer start", false, func() {
		if err := vm.Start(&Consumer{Name: "c", Demand: resource.NewVector(0.5, 0, 0, 0), Work: OpenEnded}); err != nil {
			t.Fatal(err)
		}
	})
	step("migration", true, func() {
		if err := c.Migrate(vm, pms[2], nil); err != nil {
			t.Fatal(err)
		}
		engine.Run()
		if vm.Machine() != pms[2] {
			t.Fatal("migration did not complete")
		}
	})
	step("SetRack", true, func() { pms[0].SetRack("r0") })
	step("StripeTopology", true, func() { StripeTopology(pms, 2, 0) })
	step("VM crash", true, func() {
		if err := other.Fail(); err != nil {
			t.Fatal(err)
		}
	})
	step("PM crash destroying a VM", true, func() {
		if err := pms[2].Fail(); err != nil {
			t.Fatal(err)
		}
	})
}

// capBurst returns one step of a Phase II DRM sweep over pm: every
// consumer on the machine gets a binding cap, alternating between two
// levels from step to step, then the engine flushes.
func capBurst(pm *PM) func(step int) {
	var burst []*Consumer
	pm.EachConsumer(func(c *Consumer) { burst = append(burst, c) })
	engine := pm.cluster.engine
	return func(step int) {
		f := 0.4 + 0.2*float64(step%2)
		for _, c := range burst {
			c.SetCap(c.Demand.Scale(f))
		}
		engine.RunUntil(engine.Now())
	}
}

// TestSetCapBurstSolvesOnce checks that a burst of binding caps on one
// machine at one instant defers its re-solve: every cap notifies the
// watchers, but the machine waits on the flush list once, still stale,
// until the engine flushes it. The steady-state burst allocates
// nothing.
func TestSetCapBurstSolvesOnce(t *testing.T) {
	pm := solveRig(t, 3)
	burst := capBurst(pm)
	burst(0)
	notified := 0
	pm.Watch(func() { notified++ })
	var cs []*Consumer
	pm.EachConsumer(func(c *Consumer) { cs = append(cs, c) })
	for i, c := range cs {
		c.SetCap(c.Demand.Scale(0.3 + 0.01*float64(i)))
	}
	if notified != len(cs) {
		t.Errorf("%d caps notified watchers %d times", len(cs), notified)
	}
	if !pm.stale || len(pm.cluster.dirty) != 1 {
		t.Errorf("after the burst: stale=%v, %d flush-list entries; want stale, 1 entry",
			pm.stale, len(pm.cluster.dirty))
	}
	engine := pm.cluster.engine
	engine.RunUntil(engine.Now())
	if pm.stale || pm.queued || len(pm.cluster.dirty) != 0 {
		t.Error("the engine's flush left the machine stale or queued")
	}

	step := 0
	if allocs := testing.AllocsPerRun(200, func() {
		step++
		burst(step)
	}); allocs != 0 {
		t.Errorf("SetCap burst plus flush allocates %.1f times per burst, want 0", allocs)
	}
}

// TestStructSizes pins the per-entity structs to their allocation size
// classes. A fleet holds one PM per machine, one VM per guest and one
// Consumer per running task or transfer, so a field that tips one into
// the next class costs heap in proportion to the fleet: caching a second
// vector and a flag per VM for the scoped re-solve took VM to 208 bytes
// and the 10,000-machine benchmark's live heap up 5%.
func TestStructSizes(t *testing.T) {
	for _, s := range []struct {
		name      string
		size, max uintptr
	}{
		{"PM", unsafe.Sizeof(PM{}), 256},
		{"VM", unsafe.Sizeof(VM{}), 160},
		{"Consumer", unsafe.Sizeof(Consumer{}), 240},
	} {
		if s.size > s.max {
			t.Errorf("%s is %d bytes, want at most %d", s.name, s.size, s.max)
		}
	}
}

// TestMemberChangeScopesToItsVM checks the scope rule at the API: a VM
// member's binding cap or weight change marks only its VM dirty and
// still notifies the watchers; the first read re-solves just that VM
// and clears the marks; a native consumer's cap, a demand change and a
// VM-level cap re-solve the whole machine.
func TestMemberChangeScopesToItsVM(t *testing.T) {
	pm := solveRig(t, 3)
	vm0, vm1 := pm.vms[0], pm.vms[1]
	notified := 0
	pm.Watch(func() { notified++ })

	c := vm0.consumers[0]
	c.SetCap(c.Demand.Scale(0.5))
	vm0.consumers[1].SetWeight(2)
	if pm.stale || !pm.scoped || !vm0.dirty || vm1.dirty {
		t.Errorf("member changes: stale=%v scoped=%v dirty=%v/%v, want a scoped request for vm-0 alone",
			pm.stale, pm.scoped, vm0.dirty, vm1.dirty)
	}
	if notified != 2 {
		t.Errorf("member changes notified watchers %d times, want 2", notified)
	}
	vm1.consumers[0].Alloc()
	if pm.scoped || vm0.dirty {
		t.Error("a read left the scoped re-solve pending")
	}

	for _, change := range []struct {
		name string
		do   func()
	}{
		{"native cap", func() { pm.native[0].SetCap(pm.native[0].Demand.Scale(0.5)) }},
		{"member demand", func() { c.SetDemand(c.Demand.Scale(0.9)) }},
		{"VM cap", func() { vm1.SetCap(resource.NewVector(0.5, 0, 0, 0)) }},
	} {
		change.do()
		if !pm.stale {
			t.Errorf("%s: not a full re-solve request", change.name)
		}
		pm.solve()
	}
}
