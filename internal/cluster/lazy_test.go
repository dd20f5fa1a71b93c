package cluster_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/resource"
	"repro/internal/sim"
)

// lazyScript runs one seeded random script of cluster changes on a small
// hybrid cluster and returns its log: every completion with its time,
// and at random read points every running consumer's allocation and
// speed and every machine's utilization and power, floats in full
// precision. With eager set, the cluster is the reference that solves
// and re-keys at every change (SolveOnEveryChange, plus a Flush after
// every operation); otherwise it defers solves to their first read or
// the engine's flush, as production does. Several operations often land
// on one instant, so the deferred run skips solves the reference makes.
func lazyScript(tb testing.TB, seed int64, eager bool) []string {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	engine := sim.New()
	cl := cluster.New(engine, cluster.Config{}, seed, nil)
	pms := cl.AddPMs("pm", 3)
	if eager {
		cluster.SolveOnEveryChange(cl)
	}
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", engine.Now())+fmt.Sprintf(format, args...))
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	vec := func(v resource.Vector) string {
		var b strings.Builder
		for _, k := range resource.Kinds() {
			b.WriteString(f(v.Get(k)))
			b.WriteByte(' ')
		}
		return b.String()
	}

	var vms []*cluster.VM
	addVM := func(host *cluster.PM) {
		vm, err := cl.AddVM(fmt.Sprintf("vm-%d", len(vms)), host, 1+rng.Intn(2), 700+float64(rng.Intn(600)))
		if err == nil {
			vms = append(vms, vm)
		}
	}
	for _, pm := range pms[:2] {
		addVM(pm)
		addVM(pm)
	}

	// Demands, works and weights come from small grids, so identical
	// consumers on identically loaded machines complete at the same
	// instant and their tie order is exercised.
	draw := func(scale float64) float64 {
		return scale * [...]float64{0, 0.25, 0.5, 1}[rng.Intn(4)]
	}
	// randomCap keeps, unsets, binds below or sits at or above the
	// demand in each dimension, so inert swaps are common.
	randomCap := func(demand, old resource.Vector) resource.Vector {
		var cap resource.Vector
		for _, k := range resource.Kinds() {
			d := demand.Get(k)
			var v float64
			switch r := rng.Intn(8); {
			case r < 3:
				v = old.Get(k)
			case r < 5:
				v = 0
			case r == 5:
				v = d * rng.Float64()
			default:
				v = d * (1 + rng.Float64())
			}
			cap = cap.Set(k, v)
		}
		return cap
	}

	var consumers []*cluster.Consumer
	nodes := func() []cluster.Node {
		var out []cluster.Node
		for _, pm := range pms {
			if !pm.Off() {
				out = append(out, pm)
			}
		}
		for _, vm := range vms {
			if vm.State() == cluster.VMRunning || vm.State() == cluster.VMPaused {
				out = append(out, vm)
			}
		}
		return out
	}
	var start func(node cluster.Node)
	start = func(node cluster.Node) {
		c := &cluster.Consumer{
			Name:   fmt.Sprintf("c%d", len(consumers)),
			Demand: resource.NewVector(draw(1.5), draw(900), draw(80), draw(90)),
			Work:   float64(int(1) << rng.Intn(4)),
			Weight: float64(1 + rng.Intn(2)),
		}
		if rng.Intn(5) == 0 {
			c.Work = cluster.OpenEnded
		}
		if rng.Intn(2) == 0 {
			c.Cap = randomCap(c.Demand, resource.Vector{})
		}
		// Some completions chain a new consumer onto the same node at
		// the same instant, the way a JobTracker fills a freed slot.
		chain := rng.Intn(3) == 0
		c.OnComplete = func() {
			logf("done %s", c.Name)
			if chain && node.Machine() != nil && !node.Machine().Off() {
				start(node)
			}
		}
		c.OnKilled = func() { logf("killed %s", c.Name) }
		consumers = append(consumers, c)
		if err := node.Start(c); err != nil {
			logf("start %s: %v", c.Name, err)
		}
	}
	running := func() []*cluster.Consumer {
		var out []*cluster.Consumer
		for _, c := range consumers {
			if c.Running() {
				out = append(out, c)
			}
		}
		return out
	}
	read := func() {
		for _, c := range running() {
			logf("%s alloc %s speed %s", c.Name, vec(c.Alloc()), f(c.Speed()))
		}
		for _, pm := range pms {
			logf("%s util %s power %s", pm.Name(), vec(pm.Utilization()), f(pm.PowerW()))
		}
		fs := cl.FleetStats()
		logf("fleet %s %s %d", f(fs.PowerW), vec(fs.Util), fs.PMsOn)
	}

	readOne := func(c *cluster.Consumer) {
		logf("%s alloc %s speed %s", c.Name, vec(c.Alloc()), f(c.Speed()))
	}
	// busyVM returns a running VM with members, if any.
	busyVM := func() *cluster.VM {
		var out []*cluster.VM
		for _, vm := range vms {
			if vm.State() == cluster.VMRunning && len(vm.Consumers()) > 0 {
				out = append(out, vm)
			}
		}
		if len(out) == 0 {
			return nil
		}
		return out[rng.Intn(len(out))]
	}
	// bindingCap caps every dimension of demand strictly below it.
	bindingCap := func(demand resource.Vector) resource.Vector {
		return demand.Scale(0.2 + 0.6*rng.Float64())
	}
	// drmBurst is one Phase II DRM pass over a VM at one instant: a
	// binding cap on a member, then reads of a same-VM member and of a
	// member of another VM on the host, a second cap and a weight change.
	drmBurst := func(vm *cluster.VM) {
		members := vm.Consumers()
		c := members[rng.Intn(len(members))]
		c.SetCap(bindingCap(c.Demand))
		readOne(members[rng.Intn(len(members))])
		for _, sib := range vm.Machine().VMs() {
			if sib != vm && len(sib.Consumers()) > 0 {
				readOne(sib.Consumers()[rng.Intn(len(sib.Consumers()))])
				break
			}
		}
		c2 := members[rng.Intn(len(members))]
		c2.SetCap(randomCap(c2.Demand, c2.Cap))
		members[rng.Intn(len(members))].SetWeight(float64(1 + rng.Intn(3)))
	}

	for step := 0; step < 300; step++ {
		rs := running()
		pick := func() *cluster.Consumer { return rs[rng.Intn(len(rs))] }
		vm := vms[rng.Intn(len(vms))]
		pm := pms[rng.Intn(len(pms))]
		switch op := rng.Intn(23); {
		case op < 4:
			if ns := nodes(); len(ns) > 0 {
				start(ns[rng.Intn(len(ns))])
			}
		case op < 5 && len(rs) > 0:
			pick().Stop()
		case op < 6 && len(rs) > 0:
			pick().Kill()
		case op < 9 && len(rs) > 0:
			c := pick()
			c.SetCap(randomCap(c.Demand, c.Cap))
		case op < 10 && len(rs) > 0:
			c := pick()
			c.SetDemand(resource.NewVector(draw(1.5), draw(900), draw(80), draw(90)))
		case op < 11 && len(rs) > 0:
			pick().SetWeight(float64(1 + rng.Intn(2)))
		case op < 12:
			vm.SetWeight(float64(rng.Intn(3)))
			vm.SetCap(resource.NewVector(draw(1), 0, draw(60), draw(60)))
		case op < 13:
			if vm.State() == cluster.VMPaused {
				_ = vm.Resume()
			} else {
				_ = vm.Pause()
			}
		case op < 14:
			if err := cl.Migrate(vm, pm, nil); err == nil {
				logf("migrate %s to %s", vm.Name(), pm.Name())
			}
		case op < 15:
			pm.SetSlowdown(1 + draw(2))
		case op < 16:
			pm.SetDom0Mode(rng.Intn(2) == 0)
		case op < 17 && rng.Intn(4) == 0:
			if pm.Off() {
				pm.PowerOn()
				addVM(pm)
			} else if pm != pms[0] {
				_ = pm.Fail()
			}
		case op < 18:
			read()
		case op < 20:
			if vm := busyVM(); vm != nil {
				drmBurst(vm)
			}
		case op < 21:
			// A member's binding cap, then a pause or a migration of its
			// VM before anything flushes the cap's scoped re-solve.
			if vm := busyVM(); vm != nil {
				members := vm.Consumers()
				c := members[rng.Intn(len(members))]
				c.SetCap(bindingCap(c.Demand))
				if rng.Intn(2) == 0 {
					_ = vm.Pause()
				} else if err := cl.Migrate(vm, pm, nil); err == nil {
					logf("migrate %s to %s", vm.Name(), pm.Name())
				}
			}
		default:
			engine.RunUntil(engine.Now() + time.Duration(rng.Intn(4000))*time.Millisecond)
		}
		if eager {
			cluster.Flush(cl)
		}
	}
	read()
	engine.RunUntil(engine.Now() + time.Minute)
	read()
	logf("fired %d", engine.Fired())
	return log
}

// TestDeferredSolveMatchesEagerReference is the equivalence property of
// the deferred re-solve: on random scripts of starts, stops, kills and
// completions, cap swaps (inert ones included), demand and weight
// changes, DRM-shaped bursts of member caps, reads and weight changes
// at one instant, VM pause, resume and migration (also between a
// member's cap and its flush), slowdowns, Dom-0 switches and machine
// failures, the deferred cluster fires every completion at the same
// time and in the same order as the reference that solves the whole
// machine at every change, and every allocation, speed, utilization
// and power reading matches bit for bit.
func TestDeferredSolveMatchesEagerReference(t *testing.T) {
	completions := 0
	for seed := int64(1); seed <= 30; seed++ {
		got := lazyScript(t, seed, false)
		want := lazyScript(t, seed, true)
		n := len(got)
		if len(want) < n {
			n = len(want)
		}
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d: log line %d\n got %s\nwant %s", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, reference has %d", seed, len(got), len(want))
		}
		for _, line := range got {
			if strings.Contains(line, " done ") {
				completions++
			}
		}
	}
	if completions < 300 {
		t.Fatalf("only %d completions across all scripts", completions)
	}
}

// TestDeferredSolveKeepsTieOrder pins the tie rule the reserved keys
// exist for. Two identical consumers on two idle machines would
// complete at the same instant; the last change before that instant
// touches machine a after machine b, so b's completion holds the
// earlier key and fires first, as in the reference that re-solves and
// reschedules at every change. Flushing in queue order (a was queued
// first) with fresh keys would fire a first.
func TestDeferredSolveKeepsTieOrder(t *testing.T) {
	for _, eager := range []bool{false, true} {
		engine := sim.New()
		cl := cluster.New(engine, cluster.Config{}, 1, nil)
		pms := cl.AddPMs("pm", 2)
		if eager {
			cluster.SolveOnEveryChange(cl)
		}
		var order []string
		cs := make([]*cluster.Consumer, 2)
		for i, name := range []string{"a", "b"} {
			name := name
			cs[i] = &cluster.Consumer{
				Name:       name,
				Demand:     resource.NewVector(1, 0, 0, 0),
				Work:       10,
				OnComplete: func() { order = append(order, fmt.Sprintf("%s@%v", name, engine.Now())) },
			}
			if err := pms[i].Start(cs[i]); err != nil {
				t.Fatal(err)
			}
		}
		engine.RunUntil(time.Second)
		// A lone consumer's speed ignores its weight: the re-solves
		// change keys, not times.
		cs[0].SetWeight(2)
		cs[1].SetWeight(2)
		cs[0].SetWeight(3)
		engine.Run()
		if got := fmt.Sprint(order); got != "[b@10s a@10s]" {
			t.Errorf("eager=%v: completions %s, want [b@10s a@10s]", eager, got)
		}
	}
}
