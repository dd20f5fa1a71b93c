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
	// Warm the scratch buffers and cycle the engine's freelist through
	// its cancel-debt compactions.
	for i := 0; i < 2000; i++ {
		pm.update()
	}
	return pm
}

// TestPMUpdateZeroAlloc pins the steady-state re-solve: with the
// consumer set unchanged, settling, solving and rescheduling completions
// reuse the cluster's scratch and the engine's freelist.
func TestPMUpdateZeroAlloc(t *testing.T) {
	pm := solveRig(t, 3)
	if allocs := testing.AllocsPerRun(200, pm.update); allocs != 0 {
		t.Errorf("PM.update allocates %.1f times per re-solve, want 0", allocs)
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
