package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/resource"
	"repro/internal/sim"
)

// capSkipRig builds one PM mixing native consumers with running,
// paused and empty VMs, optionally under a straggler slowdown, each
// consumer carrying a random cap. Demands mix zero and positive
// dimensions and works mix finite and open-ended, so the skip predicate
// meets unset caps, binding caps and caps at or above demand in every
// dimension.
func capSkipRig(tb testing.TB, rng *rand.Rand) (*sim.Engine, *PM, []*Consumer) {
	tb.Helper()
	engine := sim.New()
	c := New(engine, DefaultConfig(), rng.Int63())
	pm := c.AddPM("pm")
	var consumers []*Consumer
	newConsumer := func(name string) *Consumer {
		d := func(scale float64) float64 {
			if rng.Intn(4) == 0 {
				return 0
			}
			return rng.Float64() * scale
		}
		cons := &Consumer{
			Name:   name,
			Demand: resource.NewVector(d(1.5), d(900), d(80), d(90)),
			Work:   rng.Float64()*200 + 5,
			Weight: rng.Float64()*2 + 0.5,
		}
		if rng.Intn(4) == 0 {
			cons.Work = OpenEnded
		}
		cons.Cap = randomCap(rng, cons.Demand, resource.Vector{})
		consumers = append(consumers, cons)
		return cons
	}
	for i := 0; i < rng.Intn(3)+1; i++ {
		if err := pm.Start(newConsumer(fmt.Sprintf("native-%d", i))); err != nil {
			tb.Fatal(err)
		}
	}
	for v := 0; v < rng.Intn(4); v++ {
		vm, err := c.AddVM(fmt.Sprintf("vm-%d", v), pm, 1, 700)
		if err != nil {
			tb.Fatal(err)
		}
		if v == 2 {
			continue // left empty
		}
		for i := 0; i < rng.Intn(3)+1; i++ {
			if err := vm.Start(newConsumer(fmt.Sprintf("vm-%d-c%d", v, i))); err != nil {
				tb.Fatal(err)
			}
		}
		if v == 1 && rng.Intn(2) == 0 {
			if err := vm.Pause(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if rng.Intn(2) == 0 {
		pm.SetSlowdown(1 + rng.Float64()*2)
	}
	return engine, pm, consumers
}

// randomCap draws a cap for a demand: each dimension keeps its old
// value, is unset, binds below the demand, or sits at or above it.
func randomCap(rng *rand.Rand, demand, old resource.Vector) resource.Vector {
	var cap resource.Vector
	for _, k := range resource.Kinds() {
		d := demand.Get(k)
		var v float64
		switch r := rng.Intn(8); {
		case r < 2:
			v = old.Get(k)
		case r < 4:
			v = 0
		case r == 4:
			v = d * rng.Float64()
		case r == 5:
			v = d
		default:
			v = d * (1 + rng.Float64())
		}
		cap = cap.Set(k, v)
	}
	return cap
}

// solveState is everything a re-solve and the completion rescheduling
// produce on one machine.
type solveState struct {
	rawUsage resource.Vector
	alloc    []resource.Vector
	speed    []float64
	due      []time.Duration // completion time, -1 for none
}

func captureSolve(pm *PM) solveState {
	s := solveState{rawUsage: pm.rawUsage}
	pm.EachConsumer(func(c *Consumer) {
		s.alloc = append(s.alloc, c.alloc)
		s.speed = append(s.speed, c.speed)
		due := time.Duration(-1)
		if c.completion != nil {
			due = c.completion.At()
		}
		s.due = append(s.due, due)
	})
	return s
}

// sameBits compares two solve states bit for bit.
func sameBits(a, b solveState) bool {
	vecEq := func(x, y resource.Vector) bool {
		for _, k := range resource.Kinds() {
			if math.Float64bits(x.Get(k)) != math.Float64bits(y.Get(k)) {
				return false
			}
		}
		return true
	}
	if !vecEq(a.rawUsage, b.rawUsage) || len(a.alloc) != len(b.alloc) {
		return false
	}
	for i := range a.alloc {
		if !vecEq(a.alloc[i], b.alloc[i]) ||
			math.Float64bits(a.speed[i]) != math.Float64bits(b.speed[i]) ||
			a.due[i] != b.due[i] {
			return false
		}
	}
	return true
}

// capSwapMismatches drives seeded random machines through random cap
// swaps. Whenever pred calls a swap inert, it takes SetCap's skip path —
// settle, install the cap, re-create the completion events — then forces
// a full re-solve and rescheduling, and counts the swaps where the two
// differ in any allocation, speed, raw usage or completion time. Swaps
// pred rejects go through the normal re-solve. It returns the mismatch
// count and how many swaps were judged inert.
func capSwapMismatches(tb testing.TB, pred func(demand, old, new resource.Vector) bool) (mismatches, inert int) {
	tb.Helper()
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		engine, pm, consumers := capSkipRig(tb, rng)
		for step := 0; step < 60; step++ {
			engine.RunUntil(engine.Now() + time.Duration(rng.Intn(3000))*time.Millisecond)
			c := consumers[rng.Intn(len(consumers))]
			if c.host != pm {
				continue // completed
			}
			cap := randomCap(rng, c.Demand, c.Cap)
			if !pred(c.Demand, c.Cap, cap) {
				c.SetCap(cap)
				continue
			}
			inert++
			pm.settle()
			c.Cap = cap
			pm.reschedule()
			skipped := captureSolve(pm)
			pm.resolve()
			pm.reschedule()
			if !sameBits(skipped, captureSolve(pm)) {
				mismatches++
			}
		}
	}
	return mismatches, inert
}

// TestCapSwapSkipMatchesFullResolve proves the SetCap skip: on every
// swap capSwapInert accepts, skipping the solve leaves the machine
// bit-identical to a forced full re-solve, completion times included.
func TestCapSwapSkipMatchesFullResolve(t *testing.T) {
	mismatches, inert := capSwapMismatches(t, capSwapInert)
	if mismatches != 0 {
		t.Fatalf("%d of %d inert cap swaps differ from a full re-solve", mismatches, inert)
	}
	if inert < 500 {
		t.Fatalf("only %d inert swaps exercised", inert)
	}
}

// TestCapSwapCheckCatchesMemoryBlindPredicate is the mutation check of
// the test above: a predicate that ignores the memory dimension (which
// the solve reads in the paging test) must be caught.
func TestCapSwapCheckCatchesMemoryBlindPredicate(t *testing.T) {
	memoryBlind := func(demand, old, new resource.Vector) bool {
		old = old.Set(resource.Memory, 0)
		new = new.Set(resource.Memory, 0)
		return capSwapInert(demand, old, new)
	}
	if mismatches, inert := capSwapMismatches(t, memoryBlind); mismatches == 0 {
		t.Fatalf("a memory-blind predicate passed all %d swaps it called inert", inert)
	}
}

// TestSetCapSkipPath checks the skip at the API: an inert swap notifies
// no watcher and leaves ResidentGen alone, a binding one re-solves (one
// notification) and still leaves ResidentGen alone, and neither path
// allocates once the engine's freelist is warm.
func TestSetCapSkipPath(t *testing.T) {
	pm := solveRig(t, 3)
	c := pm.vms[0].consumers[0]
	notified := 0
	pm.Watch(func() { notified++ })
	gen := pm.ResidentGen()
	loose := c.Demand.Scale(1.5)
	tight := c.Demand.Scale(0.5)

	c.SetCap(loose)
	c.SetCap(loose.Scale(2))
	if notified != 0 {
		t.Errorf("inert cap swaps notified watchers %d times, want 0", notified)
	}
	c.SetCap(tight)
	if notified != 1 {
		t.Errorf("binding cap: %d notifications, want 1", notified)
	}
	if pm.ResidentGen() != gen {
		t.Errorf("cap changes moved ResidentGen %d -> %d", gen, pm.ResidentGen())
	}
	c.SetDemand(c.Demand)
	if pm.ResidentGen() == gen {
		t.Error("a demand change did not move ResidentGen")
	}

	c.SetCap(loose)
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		i++
		c.SetCap(loose.Scale(1 + float64(i%2)))
	}); allocs != 0 {
		t.Errorf("SetCap skip path allocates %.1f times per call, want 0", allocs)
	}
}
