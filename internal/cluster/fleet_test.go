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
	c := New(engine, DefaultConfig(), seed)
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
		if pm.off {
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
