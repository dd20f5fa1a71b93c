package cluster

import (
	"fmt"
	"testing"

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
	c := New(engine, DefaultConfig(), 1, nil)
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
