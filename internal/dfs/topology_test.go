package dfs

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// bruteSpansRacks and bruteOffHostFraction recompute the cached
// topology answers by scanning every DataNode, the way the filesystem
// did before it cached them.
func bruteSpansRacks(fs *FileSystem) bool {
	for _, d := range fs.datanodes {
		if nodeRack(d) != nodeRack(fs.datanodes[0]) {
			return true
		}
	}
	return false
}

func bruteOffHostFraction(fs *FileSystem, n cluster.Node) float64 {
	if len(fs.datanodes) == 0 {
		return 1
	}
	off := 0
	for _, d := range fs.datanodes {
		if d.Node().Machine() != n.Machine() {
			off++
		}
	}
	return float64(off) / float64(len(fs.datanodes))
}

// TestTopologyCacheCoherent applies a seeded random sequence of every
// mutation that moves a DataNode or relabels a rack — registration,
// failure handling, SetRack, StripeTopology, completed VM migrations, PM
// crashes that destroy VMs and single VM crashes — and after each one
// checks the cached rack-span flag and the off-host fraction of every
// node ever created against a brute-force recomputation. Each check
// also re-primes the cache, so a mutation that fails to invalidate it
// shows up as a stale answer at the next check.
func TestTopologyCacheCoherent(t *testing.T) {
	engine := sim.New()
	c := cluster.New(engine, cluster.DefaultConfig(), 9, nil)
	pms := c.AddPMs("pm", 10)
	fs := New(engine, Config{}, 9, nil)
	var nodes []cluster.Node
	var vms []*cluster.VM
	for i, pm := range pms {
		if i%2 == 0 {
			fs.AddDataNode(pm)
			nodes = append(nodes, pm)
		}
	}
	newVM := func(host *cluster.PM) {
		vm, err := c.AddVM(fmt.Sprintf("vm-%d", len(vms)), host, 1, 1024)
		if err != nil {
			return // host memory exhausted
		}
		vms = append(vms, vm)
		nodes = append(nodes, vm)
		fs.AddDataNode(vm)
	}
	for _, pm := range pms[1:5] {
		newVM(pm)
		newVM(pm)
	}

	check := func(step int, what string) {
		t.Helper()
		if got, want := fs.spansRacks(), bruteSpansRacks(fs); got != want {
			t.Fatalf("step %d after %s: spansRacks = %v, want %v", step, what, got, want)
		}
		for _, n := range nodes {
			if got, want := fs.OffHostFraction(n), bruteOffHostFraction(fs, n); got != want {
				t.Fatalf("step %d after %s: OffHostFraction(%s) = %v, want %v",
					step, what, n.Name(), got, want)
			}
		}
	}
	livePM := func(rng *rand.Rand) *cluster.PM {
		for tries := 0; tries < 20; tries++ {
			if pm := pms[rng.Intn(len(pms))]; !pm.Failed() {
				return pm
			}
		}
		return nil
	}

	rng := rand.New(rand.NewSource(11))
	check(0, "setup")
	seen := map[string]bool{}
	for step := 1; step <= 400; step++ {
		var what string
		switch rng.Intn(8) {
		case 0:
			what = "AddDataNode"
			if rng.Intn(2) == 0 {
				if pm := livePM(rng); pm != nil {
					newVM(pm)
				}
			} else {
				fs.AddDataNode(pms[rng.Intn(len(pms))]) // a PM, possibly re-registered
			}
		case 1:
			what = "HandleNodeFailures"
			batch := []cluster.Node{nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]}
			fs.HandleNodeFailures(batch)
		case 2:
			what = "SetRack"
			pms[rng.Intn(len(pms))].SetRack([]string{"", "r0", "r1"}[rng.Intn(3)])
		case 3:
			what = "StripeTopology"
			lo := rng.Intn(len(pms))
			cluster.StripeTopology(pms[lo:], rng.Intn(4), rng.Intn(3))
		case 4:
			what = "migration"
			vm := vms[rng.Intn(len(vms))]
			dst := livePM(rng)
			if vm.Machine() == nil || dst == nil || c.Migrate(vm, dst, nil) != nil {
				continue
			}
			engine.Run()
		case 5:
			what = "PM crash"
			pm := pms[rng.Intn(len(pms))]
			if err := pm.Fail(); err != nil {
				t.Fatal(err)
			}
		case 6:
			what = "VM crash"
			if err := vms[rng.Intn(len(vms))].Fail(); err != nil {
				t.Fatal(err)
			}
		case 7:
			what = "PM repair"
			pms[rng.Intn(len(pms))].PowerOn()
		}
		seen[what] = true
		check(step, what)
	}
	for _, what := range []string{"AddDataNode", "HandleNodeFailures", "SetRack", "StripeTopology", "migration", "PM crash", "VM crash"} {
		if !seen[what] {
			t.Errorf("mutation %q never exercised", what)
		}
	}
	destroyed := 0
	for _, vm := range vms {
		if vm.Machine() == nil {
			destroyed++
		}
	}
	if destroyed == 0 {
		t.Error("no VM was destroyed; the nil-machine count went untested")
	}
}

// TestTopologyQueriesZeroAlloc pins the per-launch and per-block
// queries: on an unchanged topology they read the cache and allocate
// nothing.
func TestTopologyQueriesZeroAlloc(t *testing.T) {
	_, c, fs, nodes := testFS(t, 8, 2)
	cluster.StripeTopology(c.PMs(), 2, 0)
	fs.spansRacks() // prime the cache
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		for _, n := range nodes {
			sink += fs.OffHostFraction(n)
		}
		if fs.spansRacks() {
			sink++
		}
	})
	if allocs != 0 {
		t.Errorf("topology queries allocate %.1f times per sweep, want 0", allocs)
	}
	_ = sink
}
