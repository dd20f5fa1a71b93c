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

// fleetRig builds a seeded fleet with random native load, VMs and
// powered-off machines, so the one-pass walk meets every case the
// per-statistic walks do.
func fleetRig(tb testing.TB, seed int64, pms int) *Cluster {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	engine := sim.New()
	c := New(engine, Config{}, seed, nil)
	for i, pm := range c.AddPMs("pm", pms) {
		switch rng.Intn(5) {
		case 0:
			if err := pm.PowerOff(); err != nil {
				tb.Fatal(err)
			}
			continue
		case 1:
			continue // idle
		}
		var node Node = pm
		if rng.Intn(2) == 0 {
			vm, err := c.AddVM(fmt.Sprintf("vm-%d", i), pm, 1, 1024)
			if err != nil {
				tb.Fatal(err)
			}
			node = vm
		}
		for j := 0; j < rng.Intn(3)+1; j++ {
			if err := node.Start(&Consumer{
				Name:   fmt.Sprintf("c-%d-%d", i, j),
				Demand: resource.NewVector(rng.Float64()*1.5, rng.Float64()*900, rng.Float64()*80, rng.Float64()*90),
				Work:   rng.Float64()*100 + 1,
			}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	engine.RunUntil(time.Duration(rng.Intn(30)) * time.Second)
	return c
}

// totalPowerW is the total-power walk (formerly Cluster.TotalPowerW) the
// energy recorder made every tick before FleetStats: the reference.
func totalPowerW(c *Cluster) float64 {
	var w float64
	for _, pm := range c.pms {
		w += pm.PowerW()
	}
	return w
}

// meanUtilization is the recorder's per-resource walk before FleetStats
// (formerly Cluster.MeanUtilization): the reference.
func meanUtilization(c *Cluster, kind resource.Kind) float64 {
	var sum float64
	var n int
	for _, pm := range c.pms {
		if pm.Off() {
			continue
		}
		sum += pm.Utilization().Get(kind)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TestFleetStatsMatchesPerStatisticWalks checks the one-pass walk
// against the five walks the energy recorder made before it — total
// power, mean utilization of each resource and PoweredOnPMs — bit for
// bit, on seeded fleets with powered-off machines, and on a fleet that
// is all powered off.
func TestFleetStatsMatchesPerStatisticWalks(t *testing.T) {
	bits := math.Float64bits
	check := func(name string, c *Cluster) {
		t.Helper()
		got := c.FleetStats()
		if want := totalPowerW(c); bits(got.PowerW) != bits(want) {
			t.Errorf("%s: PowerW %v, total power walk %v", name, got.PowerW, want)
		}
		if got.PMsOn != c.PoweredOnPMs() {
			t.Errorf("%s: PMsOn %d, PoweredOnPMs %d", name, got.PMsOn, c.PoweredOnPMs())
		}
		for _, k := range resource.Kinds() {
			if want := meanUtilization(c, k); bits(got.Util.Get(k)) != bits(want) {
				t.Errorf("%s: Util[%s] %v, mean utilization walk %v", name, k, got.Util.Get(k), want)
			}
		}
	}
	for seed := int64(1); seed <= 30; seed++ {
		check(fmt.Sprintf("seed %d", seed), fleetRig(t, seed, 40))
	}
	_, c := testCluster(t)
	for _, pm := range c.AddPMs("off", 3) {
		if err := pm.PowerOff(); err != nil {
			t.Fatal(err)
		}
	}
	check("all off", c)
}

// TestFleetStatsZeroAlloc pins the one-pass walk allocation-free.
func TestFleetStatsZeroAlloc(t *testing.T) {
	c := fleetRig(t, 3, 200)
	if allocs := testing.AllocsPerRun(100, func() { c.FleetStats() }); allocs != 0 {
		t.Errorf("FleetStats allocates %.1f times per walk, want 0", allocs)
	}
}

// referenceUtil is PM.Utilization before the fleet table: the machine's
// total raw allocation, from a fresh solve, divided by its capacity and
// clamped to 1. The solve is a pure function of the resident state, so
// re-running it changes nothing but makes the reference independent of
// the table.
func referenceUtil(pm *PM) resource.Vector {
	return pm.resolve().Div(pm.capacity).Min(resource.NewVector(1, 1, 1, 1))
}

// referenceFleetStats is FleetStats before the fleet table: a walk of
// every PM in order, skipping the ones the test powered off or failed.
func referenceFleetStats(c *Cluster, off map[*PM]bool) FleetStats {
	var s FleetStats
	var sum resource.Vector
	for _, pm := range c.pms {
		if off[pm] {
			continue
		}
		u := referenceUtil(pm)
		s.PowerW += PowerIdleW + (powerPeakW-PowerIdleW)*u.Get(resource.CPU)
		sum = sum.Add(u)
		s.PMsOn++
	}
	if s.PMsOn > 0 {
		for _, k := range resource.Kinds() {
			s.Util = s.Util.Set(k, sum.Get(k)/float64(s.PMsOn))
		}
	}
	return s
}

// fleetChurn is a seeded fleet the test can keep changing: it records
// which machines it powered off or failed, and the consumers it started.
type fleetChurn struct {
	c         *Cluster
	rng       *rand.Rand
	off       map[*PM]bool
	consumers []*Consumer
	vms       []*VM
	n         int
}

func newFleetChurn(tb testing.TB, seed int64, pms int) *fleetChurn {
	tb.Helper()
	f := &fleetChurn{
		c:   New(sim.New(), Config{}, seed, nil),
		rng: rand.New(rand.NewSource(seed)),
		off: map[*PM]bool{},
	}
	for i, pm := range f.c.AddPMs("pm", pms) {
		switch f.rng.Intn(5) {
		case 0:
			if err := pm.PowerOff(); err != nil {
				tb.Fatal(err)
			}
			f.off[pm] = true
		case 1:
			// idle
		case 2:
			vm, err := f.c.AddVM(fmt.Sprintf("vm-%d", i), pm, 1, 1024)
			if err != nil {
				tb.Fatal(err)
			}
			f.vms = append(f.vms, vm)
			f.start(tb, vm)
		default:
			f.start(tb, pm)
		}
	}
	return f
}

// start attaches one or two random consumers to a node.
func (f *fleetChurn) start(tb testing.TB, node Node) {
	tb.Helper()
	for j := 0; j < f.rng.Intn(2)+1; j++ {
		f.n++
		c := &Consumer{
			Name:   fmt.Sprintf("c-%d", f.n),
			Demand: resource.NewVector(f.rng.Float64()*2.5, f.rng.Float64()*3000, f.rng.Float64()*120, f.rng.Float64()*90),
			Work:   f.rng.Float64()*100 + 1,
		}
		if f.rng.Intn(4) == 0 {
			c.Work = OpenEnded
		}
		if err := node.Start(c); err != nil {
			tb.Fatal(err)
		}
		f.consumers = append(f.consumers, c)
	}
}

// change makes a round of changes at the current instant without
// flushing them: loads start, stop and change demand, stragglers appear
// and recover, VMs pause and resume, machines fail and are repaired.
func (f *fleetChurn) change(tb testing.TB) {
	tb.Helper()
	pms := f.c.pms
	for i := 0; i < len(pms)/4; i++ {
		pm := pms[f.rng.Intn(len(pms))]
		switch f.rng.Intn(7) {
		case 0:
			if !f.off[pm] {
				f.start(tb, pm)
			}
		case 1, 2:
			if c := f.consumers[f.rng.Intn(len(f.consumers))]; c.Running() {
				if f.rng.Intn(2) == 0 {
					c.Stop()
				} else {
					c.SetDemand(c.Demand.Scale(0.5 + f.rng.Float64()))
				}
			}
		case 3:
			pm.SetSlowdown(1 + 3*f.rng.Float64()*float64(f.rng.Intn(2)))
		case 4:
			if len(f.vms) > 0 {
				vm := f.vms[f.rng.Intn(len(f.vms))]
				switch vm.State() {
				case VMRunning:
					_ = vm.Pause()
				case VMPaused:
					_ = vm.Resume()
				}
			}
		case 5:
			if !f.off[pm] && f.rng.Intn(3) == 0 {
				if err := pm.Fail(); err != nil {
					tb.Fatal(err)
				}
				f.off[pm] = true
			}
		default:
			if f.off[pm] {
				pm.PowerOn()
				f.off[pm] = false
			}
		}
	}
}

// TestFleetTableMatchesPerPMFormula checks the fleet table against the
// per-PM formula it replaced, bit for bit, on seeded fleets with VMs,
// powered-off, failed and repaired machines, stragglers and paused VMs.
// Each check runs right after a round of changes the engine has not
// flushed yet, so FleetStats and Utilization must solve the queued
// machines themselves. The references re-solve after the value under
// test is read, so they cannot pre-solve a machine for it.
func TestFleetTableMatchesPerPMFormula(t *testing.T) {
	bits := math.Float64bits
	for seed := int64(1); seed <= 12; seed++ {
		f := newFleetChurn(t, seed, 60)
		engine := f.c.engine
		queued := 0
		for round := 0; round < 12; round++ {
			engine.RunUntil(engine.Now() + time.Duration(f.rng.Intn(20))*time.Second)
			f.change(t)
			queued += len(f.c.dirty)
			if round%2 == 0 {
				got := f.c.FleetStats()
				want := referenceFleetStats(f.c, f.off)
				if bits(got.PowerW) != bits(want.PowerW) || got.PMsOn != want.PMsOn {
					t.Fatalf("seed %d round %d: FleetStats power %v over %d PMs, reference %v over %d",
						seed, round, got.PowerW, got.PMsOn, want.PowerW, want.PMsOn)
				}
				for _, k := range resource.Kinds() {
					if bits(got.Util.Get(k)) != bits(want.Util.Get(k)) {
						t.Fatalf("seed %d round %d: FleetStats Util[%s] %v, reference %v",
							seed, round, k, got.Util.Get(k), want.Util.Get(k))
					}
				}
				if n := f.c.PoweredOnPMs(); n != want.PMsOn {
					t.Fatalf("seed %d round %d: PoweredOnPMs %d, want %d", seed, round, n, want.PMsOn)
				}
				continue
			}
			for _, pm := range f.c.pms {
				if pm.Off() != f.off[pm] {
					t.Fatalf("seed %d round %d: %s Off() = %v, want %v", seed, round, pm.name, pm.Off(), f.off[pm])
				}
				got := pm.Utilization()
				want := referenceUtil(pm)
				for _, k := range resource.Kinds() {
					if bits(got.Get(k)) != bits(want.Get(k)) {
						t.Fatalf("seed %d round %d: %s Utilization[%s] %v, reference %v",
							seed, round, pm.name, k, got.Get(k), want.Get(k))
					}
				}
			}
		}
		if queued == 0 {
			t.Fatalf("seed %d: no check ran with a machine queued for a flush", seed)
		}
	}
}
