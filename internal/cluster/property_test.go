package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/resource"
	"repro/internal/sim"
)

// Property: for any random population of consumers across native
// execution and VMs, the kernel never allocates more than the machine's
// raw capacity in any dimension, never gives a consumer more than its
// demand, and every finite consumer eventually completes.
func TestKernelAllocationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		engine := sim.New()
		c := New(engine, Config{}, seed, nil)
		pm := c.AddPM("pm")
		var vms []*VM
		for i := 0; i < rng.Intn(3); i++ {
			vm, err := c.AddVM("vm", pm, 1, 1024)
			if err != nil {
				return false
			}
			vms = append(vms, vm)
		}
		var consumers []*Consumer
		n := rng.Intn(6) + 1
		for i := 0; i < n; i++ {
			con := &Consumer{
				Name: "c",
				Demand: resource.NewVector(
					rng.Float64()*2,
					rng.Float64()*600,
					rng.Float64()*120,
					rng.Float64()*150,
				),
				Work:   rng.Float64()*50 + 1,
				Weight: rng.Float64()*3 + 0.1,
			}
			var node Node = pm
			if len(vms) > 0 && rng.Intn(2) == 0 {
				node = vms[rng.Intn(len(vms))]
			}
			if err := node.Start(con); err != nil {
				return false
			}
			consumers = append(consumers, con)
		}

		// Mid-run checks at a few instants.
		for _, at := range []time.Duration{time.Second, 5 * time.Second, 20 * time.Second} {
			engine.RunUntil(at)
			var total resource.Vector
			cap := pm.Capacity()
			for _, con := range consumers {
				if !con.Running() {
					continue
				}
				alloc := con.Alloc()
				for _, k := range resource.Kinds() {
					if alloc.Get(k) > con.Demand.Get(k)+1e-6 {
						return false // got more than asked
					}
				}
				total = total.Add(alloc)
			}
			// Useful allocations are below raw capacity by construction
			// (efficiency < 1), so raw capacity bounds them too.
			for _, k := range resource.Kinds() {
				if total.Get(k) > cap.Get(k)+1e-6 {
					return false
				}
			}
		}
		engine.RunUntil(100 * time.Hour)
		for _, con := range consumers {
			if !con.Done() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: work is conserved — a consumer's completion time is never
// earlier than its full-speed duration, regardless of contention.
func TestKernelNoSuperluminalProgress(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		engine := sim.New()
		c := New(engine, Config{}, seed, nil)
		pm := c.AddPM("pm")
		type tracked struct {
			work   float64
			doneAt time.Duration
		}
		results := make([]*tracked, 0, 4)
		n := rng.Intn(4) + 1
		for i := 0; i < n; i++ {
			tr := &tracked{work: rng.Float64()*30 + 0.5}
			con := &Consumer{
				Name:   "c",
				Demand: resource.NewVector(rng.Float64()+0.1, 0, rng.Float64()*50, 0),
				Work:   tr.work,
			}
			con.OnComplete = func() { tr.doneAt = engine.Now() }
			if err := pm.Start(con); err != nil {
				return false
			}
			results = append(results, tr)
		}
		engine.Run()
		for _, tr := range results {
			if tr.doneAt.Seconds() < tr.work-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
