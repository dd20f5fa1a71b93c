package cluster

import (
	"fmt"
	"math"
	"time"

	"repro/internal/resource"
	"repro/internal/trace"
)

// Node is anywhere a Consumer can run: a PM (native or Dom-0 execution)
// or a VM.
type Node interface {
	// Name identifies the node.
	Name() string
	// Machine returns the physical machine backing the node.
	Machine() *PM
	// Start attaches a consumer to the node and begins executing it.
	Start(c *Consumer) error
	// UsefulCapacity is the node's full-speed capacity in useful units
	// (after virtualization overhead), assuming no contention.
	UsefulCapacity() resource.Vector
	// Consumers returns the consumers currently attached. The slice is
	// the node's own list, not a copy: callers must not modify or keep
	// it, nor attach or detach consumers while ranging over it.
	Consumers() []*Consumer
}

var (
	_ Node = (*PM)(nil)
	_ Node = (*VM)(nil)
)

// PM is a physical machine. Consumers started directly on a PM run
// natively (or in Dom-0 if a Dom-0 overhead profile is installed); VMs
// hosted by the PM contend with them under the two-level fair-share
// kernel.
type PM struct {
	name           string
	cluster        *Cluster
	capacity       resource.Vector
	nativeOverhead OverheadProfile
	vms            []*VM
	native         []*Consumer
	rack           string
	powerDomain    string
	// idx is the machine's provisioning index: its row in the cluster's
	// fleet table, which holds its utilization and power state.
	idx int

	lastSettle time.Duration
	slowdown   float64 // injected straggler factor; <= 1 means full speed

	watchers []func() // notified on every re-solve request; see Watch
	// residentGen counts the re-solve requests that may have changed
	// which consumers are resident or what they demand: every one except
	// those from a cap or weight change. See ResidentGen.
	residentGen uint64

	// stale marks allocations and speeds as out of date: the next read
	// of them, or the cluster's flush, re-solves the whole machine first.
	// See request.
	stale bool
	// scoped marks the members' shares of the hosted VMs flagged dirty
	// as out of date: without stale, the next read or flush re-solves
	// only those. See request.
	scoped bool
	// settled records that settle ran at lastSettle and no resident has
	// joined since, so settling again at that instant changes nothing.
	settled bool
	// queued marks the machine as on the cluster's flush list, its
	// completion events awaiting re-keying.
	queued bool
	// keys is the first of the engine sequence numbers reserved at the
	// latest change, one per resident consumer in EachConsumer order.
	keys uint64

	offSpan trace.Span // open while the PM is powered off
}

// Name returns the PM's name.
func (pm *PM) Name() string { return pm.name }

// Machine returns the PM itself.
func (pm *PM) Machine() *PM { return pm }

// Cluster returns the cluster the PM was provisioned in.
func (pm *PM) Cluster() *Cluster { return pm.cluster }

// Index returns the machine's provisioning index: dense from 0 in the
// order its cluster provisioned machines, and never reused, so per-PM
// state can live in a slice indexed by it.
func (pm *PM) Index() int { return pm.idx }

// Capacity returns the raw hardware capacity.
func (pm *PM) Capacity() resource.Vector { return pm.capacity }

// UsefulCapacity returns capacity scaled by the native overhead profile
// (identity for bare metal, slightly less for Dom-0 mode).
func (pm *PM) UsefulCapacity() resource.Vector {
	v := pm.capacity
	v = v.Set(resource.CPU, v.Get(resource.CPU)*pm.nativeOverhead.CPU)
	v = v.Set(resource.DiskIO, v.Get(resource.DiskIO)*pm.nativeOverhead.Disk)
	v = v.Set(resource.NetIO, v.Get(resource.NetIO)*pm.nativeOverhead.Net)
	return v
}

// SetDom0Mode switches direct execution on this PM between bare metal
// (false) and Xen privileged-domain mode (true), which carries the small
// Dom-0 overhead the paper measures in Figure 2(c).
func (pm *PM) SetDom0Mode(enabled bool) {
	pm.settle()
	if enabled {
		pm.nativeOverhead = Dom0Overhead()
	} else {
		pm.nativeOverhead = NoOverhead()
	}
	pm.update()
}

// VMs returns the VMs currently hosted on this PM.
func (pm *PM) VMs() []*VM {
	out := make([]*VM, len(pm.vms))
	copy(out, pm.vms)
	return out
}

// Consumers returns the native consumers attached directly to the PM,
// as the PM's own list; see Node.
func (pm *PM) Consumers() []*Consumer { return pm.native }

// Start begins executing a consumer natively on the PM.
func (pm *PM) Start(c *Consumer) error {
	if c == nil {
		return fmt.Errorf("cluster: %s: Start(nil)", pm.name)
	}
	if c.state == consumerRunning {
		return fmt.Errorf("cluster: %s: consumer %q already running on %s", pm.name, c.Name, c.Node().Name())
	}
	if pm.Off() {
		return fmt.Errorf("cluster: %s: powered off", pm.name)
	}
	pm.settle()
	c.state = consumerRunning
	c.host = pm
	c.vm = nil
	c.remaining = c.Work
	c.lastSettle = pm.cluster.engine.Now()
	pm.native = append(pm.native, c)
	pm.update()
	return nil
}

// PowerOff turns the PM off. It fails if any consumer or VM is still
// present, because powering off busy hardware is an operator error the
// scheduler must never make.
func (pm *PM) PowerOff() error {
	if len(pm.native) > 0 || len(pm.vms) > 0 {
		return fmt.Errorf("cluster: %s: cannot power off with %d consumers and %d VMs",
			pm.name, len(pm.native), len(pm.vms))
	}
	pm.row().off = true
	pm.cluster.mPowerTransitions.Inc()
	pm.cluster.ts.Add("cluster.pm.power_transitions", "", pm.cluster.engine.Now(), 1)
	if tr := pm.cluster.tracer; tr != nil {
		tr.Instant(pm.name, "power", "power-off")
		pm.offSpan = tr.Begin(pm.name, "power", "powered-off")
	}
	return nil
}

// PowerOn turns the PM back on.
func (pm *PM) PowerOn() {
	if pm.Off() {
		pm.cluster.mPowerTransitions.Inc()
		pm.cluster.ts.Add("cluster.pm.power_transitions", "", pm.cluster.engine.Now(), 1)
		if tr := pm.cluster.tracer; tr != nil {
			tr.Instant(pm.name, "power", "power-on")
		}
		pm.offSpan.End()
		pm.offSpan = trace.Span{}
	}
	pm.row().off = false
}

// Off reports whether the PM is powered off.
func (pm *PM) Off() bool { return pm.row().off }

// row returns the machine's entry in the cluster's fleet table.
func (pm *PM) row() *fleetRow { return &pm.cluster.fleet[pm.idx] }

// SetSlowdown installs a degradation factor on the machine: every
// consumer — native and inside every hosted VM — progresses factor
// times slower than its fair-share allocation would allow. The fault
// injector uses it to model stragglers (failing disks, background
// scrubs, noisy neighbours outside the model) that slow a node without
// killing it. A factor of 1 or less restores full speed.
func (pm *PM) SetSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	if factor == pm.Slowdown() {
		return
	}
	pm.settle()
	pm.slowdown = factor
	pm.update()
	if tr := pm.cluster.tracer; tr != nil {
		tr.Instant(pm.name, "fault", "slowdown", trace.F("factor", factor))
	}
}

// Slowdown returns the installed degradation factor (1 = full speed).
func (pm *PM) Slowdown() float64 {
	if pm.slowdown < 1 {
		return 1
	}
	return pm.slowdown
}

// Utilization returns the PM's current raw usage divided by capacity,
// per resource dimension, each in [0, 1]: the fleet table's row, which
// every solve rewrites.
func (pm *PM) Utilization() resource.Vector {
	pm.solve()
	return pm.row().util
}

// PowerW returns the instantaneous power draw under the linear model
// P(u_cpu) = idle + (peak-idle) * u_cpu; 0 when powered off.
func (pm *PM) PowerW() float64 {
	if pm.Off() {
		return 0
	}
	return pm.cluster.powerAt(pm.Utilization())
}

// EachConsumer calls fn on every consumer resident on the machine, in
// place: the native consumers in attach order, then each hosted VM's in
// VM order. fn must not attach or detach consumers.
func (pm *PM) EachConsumer(fn func(c *Consumer)) {
	for _, c := range pm.native {
		fn(c)
	}
	for _, vm := range pm.vms {
		for _, c := range vm.consumers {
			fn(c)
		}
	}
}

// residents counts the consumers resident on the machine, the ones
// EachConsumer visits.
func (pm *PM) residents() int {
	n := len(pm.native)
	for _, vm := range pm.vms {
		n += len(vm.consumers)
	}
	return n
}

// settle integrates every consumer's progress at the current speeds up to
// the present instant. It must run before any state change that affects
// allocations. A second settle at one instant is a no-op — every
// resident already holds its progress at that instant — so it returns
// at once unless update has since cleared settled: a resident that
// joined (a VM migrating in brings members last settled on its source)
// still needs its clock brought forward.
func (pm *PM) settle() {
	now := pm.cluster.engine.Now()
	if pm.settled && now == pm.lastSettle {
		return
	}
	if (pm.stale || pm.scoped) && now != pm.lastSettle {
		// The engine flushes every request before its clock moves, so
		// this is a safety net: integrate at the speeds in force since
		// the last settle, not at stale ones.
		pm.solve()
	}
	pm.EachConsumer(func(c *Consumer) {
		if c.Work < 0 {
			c.lastSettle = now
			return
		}
		dt := (now - c.lastSettle).Seconds()
		if dt > 0 && c.speed > 0 {
			c.remaining -= dt * c.speed
			if c.remaining < 0 {
				c.remaining = 0
			}
		}
		c.lastSettle = now
	})
	pm.lastSettle = now
	pm.settled = true
}

// Watch registers a callback invoked on every re-solve request of this
// PM's allocation (consumer attach/detach, demand/cap/weight change, VM
// arrival/departure, pause, resume, migration, slowdown transitions,
// failure), whether the request re-solves the whole machine or, for a
// VM member's cap or weight, only that VM's members (see request).
// Schedulers use it to invalidate cached per-machine state instead of
// rescanning the fleet. A cap swap the solve provably ignores — neither
// the old nor the new cap binds in any dimension that changed (see
// Consumer.SetCap) — requests no re-solve and notifies no one: every
// allocation and speed stays bit-identical. The solve itself runs on
// demand, so a callback may read allocations (Consumer.Alloc,
// Consumer.Speed, Utilization): the first read re-solves. Callbacks must
// not mutate cluster state; they run synchronously on the simulation
// goroutine, so ordering is deterministic.
func (pm *PM) Watch(fn func()) {
	pm.watchers = append(pm.watchers, fn)
}

// ResidentGen returns a counter that moves on every re-solve request
// that may have changed the machine's resident consumers or their
// demands: every request except those from Consumer.SetCap and
// Consumer.SetWeight. State derived only from residents, demands and
// capacity, cached together with the generation it was computed at, is
// still current while the generation has not moved.
func (pm *PM) ResidentGen() uint64 { return pm.residentGen }

// update requests a full re-solve after a change that may have moved
// the resident consumers or their demands.
func (pm *PM) update() {
	pm.residentGen++
	pm.settled = false
	pm.reshare(nil)
}

// reshare is update for a change that leaves every resident consumer and
// its demand alone — a cap or weight change — so ResidentGen stays put.
// The change is to a member of vm, whose share alone it re-solves, or,
// with vm nil, to the whole machine.
func (pm *PM) reshare(vm *VM) {
	pm.request()
	if vm == nil {
		pm.stale = true
	} else {
		vm.dirty = true
		pm.scoped = true
	}
	for _, fn := range pm.watchers {
		fn()
	}
}

// request records a change to the machine without solving it. It
// settles progress at the old speeds and reserves one engine sequence
// number per resident consumer, in EachConsumer order, for the
// completion events the change re-keys; reshare then marks what the
// change made stale. The machine waits on the cluster's flush list: the
// solve runs at the first read of its outputs or at the flush the engine
// runs before its next pop, whichever comes first, and the flush re-keys
// every completion to the reserved sequence numbers. Because the solve
// is a pure function of the resident state and the reserved keys sit
// where an immediate cancel-and-reschedule would have put them, the
// outcome is exactly that of solving at every change — except that a
// solve superseded by a later change at the same instant never runs.
//
// A change to a VM member's cap or weight marks only that VM dirty.
// The top level divides the machine among native consumers and VMs by
// their raw demands, the VMs' weights and the VMs' caps — never a
// member's cap or weight — so every top-level share, and every other
// group's second level, is what the last full solve computed; re-running
// that VM's second level from its cached share gives the full solve's
// bits. Every other change marks the whole machine stale.
func (pm *PM) request() {
	pm.settle()
	pm.keys = pm.cluster.engine.Reserve(pm.residents())
	if !pm.queued {
		pm.queued = true
		pm.cluster.enqueue(pm)
	}
}

// solve brings stale allocations and speeds up to date: the whole
// machine when it is stale, else the dirty VMs' members.
func (pm *PM) solve() {
	switch {
	case pm.stale:
		pm.stale, pm.scoped = false, false
		pm.resolve()
	case pm.scoped:
		pm.scoped = false
		pm.resolveVMs()
	}
}

// resolve computes allocations and speeds for every consumer on the PM,
// caches each VM's top-level share and each member's raw allocation for
// resolveVMs, and records the machine's utilization — its total raw
// allocation over capacity, clamped to 1 — in its fleet table row. It
// returns that raw allocation.
func (pm *PM) resolve() resource.Vector {
	inflate := pm.ioInflate()

	hostMem := pm.capacity.Get(resource.Memory)
	var vmReserved float64
	for _, vm := range pm.vms {
		vmReserved += vm.memMB
	}
	nativeMem := hostMem - vmReserved
	if nativeMem < 0 {
		nativeMem = 0
	}

	// Top level: one group per native consumer plus one per VM.
	sc := &pm.cluster.solve
	groups := sc.groups[:0]
	for i, c := range pm.native {
		groups = append(groups, solveGroup{
			members:  pm.native[i : i+1],
			overhead: pm.nativeOverhead,
			inflate:  resource.NewVector(1, 1, 1, 1),
			weight:   effWeight(c.Weight),
			memCap:   nativeMem,
		})
	}
	for _, vm := range pm.vms {
		if vm.state != VMRunning || len(vm.consumers) == 0 {
			// Paused/migrating VMs and empty VMs get no CPU/IO share;
			// their consumers' speeds are zeroed below.
			continue
		}
		g := solveGroup{
			members:  vm.consumers,
			vm:       vm,
			overhead: XenGuestOverhead(),
			inflate:  inflate,
			weight:   vm.weight,
			memCap:   vm.memMB,
		}
		g.cap = resource.NewVector(float64(vm.vcpus), vm.memMB, 0, 0)
		if vm.capIO.Get(resource.DiskIO) > 0 {
			g.cap = g.cap.Set(resource.DiskIO, vm.capIO.Get(resource.DiskIO))
		}
		if vm.capIO.Get(resource.NetIO) > 0 {
			g.cap = g.cap.Set(resource.NetIO, vm.capIO.Get(resource.NetIO))
		}
		if vm.capIO.Get(resource.CPU) > 0 && vm.capIO.Get(resource.CPU) < g.cap.Get(resource.CPU) {
			g.cap = g.cap.Set(resource.CPU, vm.capIO.Get(resource.CPU))
		}
		groups = append(groups, g)
	}
	sc.groups = groups

	// Raw (host-level) demand of each member: useful demand divided by
	// efficiency, inflated by cross-VM I/O contention.
	raw := sc.raw[:0]
	groupDemand := sc.demand[:0]
	groupWeights := sc.weights[:0]
	groupCaps := sc.caps[:0]
	for gi := range groups {
		g := &groups[gi]
		g.rawStart = len(raw)
		var total resource.Vector
		for _, c := range g.members {
			r := rawDemand(c.Demand, g.overhead, g.inflate)
			raw = append(raw, r)
			total = total.Add(r)
		}
		// A VM reserves its full memory on the host regardless of usage.
		if g.vm != nil {
			total = total.Set(resource.Memory, g.vm.memMB)
		}
		groupDemand = append(groupDemand, total)
		groupWeights = append(groupWeights, g.weight)
		groupCaps = append(groupCaps, g.cap)
	}
	sc.raw, sc.demand, sc.weights, sc.caps = raw, groupDemand, groupWeights, groupCaps
	// Seek thrashing: an oversubscribed disk loses sequential bandwidth
	// to head movement between competing streams.
	solveCap := pm.capacity
	diskCap := solveCap.Get(resource.DiskIO)
	var totalDisk float64
	for _, gd := range groupDemand {
		totalDisk += gd.Get(resource.DiskIO)
	}
	if diskCap > 0 && totalDisk > diskCap {
		// Quadratic ramp: slight oversubscription costs almost nothing
		// (the elevator scheduler merges nearly-sequential streams),
		// heavy oversubscription converges to the thrash floor.
		over := totalDisk/diskCap - 1
		divisor := 1 + diskSeekOverloadFactor*over*over
		if divisor > diskSeekMaxPenalty {
			divisor = diskSeekMaxPenalty
		}
		solveCap = solveCap.Set(resource.DiskIO, diskCap/divisor)
	}
	groupAlloc := resource.ShareVectorInto(sc.alloc, solveCap, groupDemand, groupWeights, groupCaps, &sc.share)
	sc.alloc = groupAlloc

	// Second level: members share their group's allocation.
	var totalRaw resource.Vector
	for gi := range groups {
		g := &groups[gi]
		if g.vm != nil {
			g.vm.share = groupAlloc[gi]
		}
		pm.shareMembers(g, groupAlloc[gi], raw[g.rawStart:g.rawStart+len(g.members)])
		for _, c := range g.members {
			totalRaw = totalRaw.Add(c.raw)
		}
	}

	// Consumers on paused or migrating VMs are frozen. Every VM's
	// members are now solved, so none is left dirty.
	for _, vm := range pm.vms {
		vm.dirty = false
		if vm.state == VMRunning {
			continue
		}
		for _, c := range vm.consumers {
			c.alloc = resource.Vector{}
			c.speed = 0
		}
		totalRaw = totalRaw.Set(resource.Memory,
			totalRaw.Get(resource.Memory)+vm.memMB)
	}
	pm.recordUtil(totalRaw)
	return totalRaw
}

// resolveVMs re-solves the second level of the dirty VMs only, each from
// the top-level share the last full solve cached, then rebuilds the
// machine's utilization from every member's cached raw allocation. It
// re-adds them in resolve's order — native consumers, then each running
// VM's members, then the frozen VMs' memory — because float addition is
// not associative: summing per-group subtotals, say, would move the
// machine's utilization and power in the last bits.
func (pm *PM) resolveVMs() {
	inflate := pm.ioInflate()
	overhead := XenGuestOverhead()
	sc := &pm.cluster.solve
	for _, vm := range pm.vms {
		if !vm.dirty {
			continue
		}
		vm.dirty = false
		if vm.state != VMRunning {
			continue // frozen: its members keep no allocation
		}
		raw := sc.raw[:0]
		for _, c := range vm.consumers {
			raw = append(raw, rawDemand(c.Demand, overhead, inflate))
		}
		sc.raw = raw
		pm.shareMembers(&solveGroup{members: vm.consumers, overhead: overhead, inflate: inflate, memCap: vm.memMB}, vm.share, raw)
	}

	var total resource.Vector
	for _, c := range pm.native {
		total = total.Add(c.raw)
	}
	for _, vm := range pm.vms {
		if vm.state == VMRunning {
			for _, c := range vm.consumers {
				total = total.Add(c.raw)
			}
		}
	}
	for _, vm := range pm.vms {
		if vm.state != VMRunning {
			total = total.Set(resource.Memory, total.Get(resource.Memory)+vm.memMB)
		}
	}
	pm.recordUtil(total)
}

// shareMembers divides a group's top-level allocation among its members,
// given their raw demands, and sets each member's raw and useful
// allocation and its speed.
func (pm *PM) shareMembers(g *solveGroup, alloc resource.Vector, rawDemands []resource.Vector) {
	sc := &pm.cluster.solve
	weights := sc.memberWeights[:0]
	caps := sc.memberCaps[:0]
	for _, c := range g.members {
		weights = append(weights, effWeight(c.Weight))
		cap := c.Cap
		if cap != (resource.Vector{}) {
			cap = rawDemand(cap, g.overhead, g.inflate)
		}
		caps = append(caps, cap)
	}
	sc.memberWeights, sc.memberCaps = weights, caps
	memberAlloc := resource.ShareVectorInto(sc.memberAlloc, alloc, rawDemands, weights, caps, &sc.share)
	sc.memberAlloc = memberAlloc

	// Memory pressure inside the container: overcommit causes
	// thrashing that slows every memory-using member. A consumer with a
	// memory cap below its demand pages on its own (self penalty) but
	// relieves the container.
	var memDemand float64
	selfPenalty := sc.selfPenalty[:0]
	for _, c := range g.members {
		use := c.Demand.Get(resource.Memory)
		penalty := 1.0
		if capMem := c.Cap.Get(resource.Memory); capMem > 0 && capMem < use {
			penalty = math.Pow(capMem/use, memPenaltyExp)
			use = capMem
		}
		selfPenalty = append(selfPenalty, penalty)
		memDemand += use
	}
	sc.selfPenalty = selfPenalty
	memPenalty := 1.0
	if g.memCap > 0 && memDemand > g.memCap {
		memPenalty = math.Pow(g.memCap/memDemand, memPenaltyExp)
	}

	for mi, c := range g.members {
		raw := memberAlloc[mi]
		c.raw = raw
		useful := usefulAlloc(raw, g.overhead, g.inflate)
		c.alloc = useful
		c.speed = progressSpeed(c.Demand, useful)
		if c.Demand.Get(resource.Memory) > 0 {
			c.speed *= memPenalty * selfPenalty[mi]
		}
		// An injected straggler factor slows every consumer on the
		// machine below what its allocation would sustain.
		if pm.slowdown > 1 {
			c.speed /= pm.slowdown
		}
	}
}

// ioInflate returns the factors by which cross-VM I/O contention
// inflates a VM member's raw disk and network demand: the Dom-0 backend
// bottleneck penalizes each running VM actively demanding that kind of
// I/O beyond the first.
func (pm *PM) ioInflate() resource.Vector {
	kDisk, kNet := 0, 0
	for _, vm := range pm.vms {
		if vm.state != VMRunning {
			continue
		}
		var disk, net float64
		for _, c := range vm.consumers {
			disk += c.Demand.Get(resource.DiskIO)
			net += c.Demand.Get(resource.NetIO)
		}
		if disk > 0 {
			kDisk++
		}
		if net > 0 {
			kNet++
		}
	}
	return resource.NewVector(1, 1,
		1+ioContentionPerVM*float64(max(kDisk-1, 0)),
		1+ioContentionPerVM*float64(max(kNet-1, 0)))
}

// recordUtil writes the machine's total raw allocation over capacity,
// clamped to 1, into its fleet table row.
func (pm *PM) recordUtil(totalRaw resource.Vector) {
	pm.row().util = totalRaw.Div(pm.capacity).Min(resource.NewVector(1, 1, 1, 1))
}

// solveScratch holds the buffers resolve reuses from solve to solve, so
// a steady-state re-solve allocates nothing. Solves never nest — resolve
// calls out to nothing — so the PMs of a cluster share one scratch:
// per-PM buffers would hold live heap in proportion to the fleet for no
// gain.
type solveScratch struct {
	groups        []solveGroup
	raw           []resource.Vector // every member's raw demand, group by group
	demand        []resource.Vector
	weights       []float64
	caps          []resource.Vector
	alloc         []resource.Vector
	memberWeights []float64
	memberCaps    []resource.Vector
	memberAlloc   []resource.Vector
	selfPenalty   []float64
	share         resource.ShareScratch
}

// solveGroup is one top-level share of a PM: a native consumer or a VM.
type solveGroup struct {
	members  []*Consumer
	vm       *VM // nil for native
	overhead OverheadProfile
	inflate  resource.Vector
	weight   float64
	cap      resource.Vector
	memCap   float64 // memory available to members
	rawStart int     // first member's index in solveScratch.raw
}

// rekey points the completion event of every finite running consumer
// at the time its freshly solved speed gives, under the sequence number
// reserved for it at the latest change, and cancels the events of
// consumers that stalled. The machine must be solved.
func (pm *PM) rekey() {
	engine := pm.cluster.engine
	now := engine.Now()
	key := pm.keys
	pm.EachConsumer(func(c *Consumer) {
		c.rekey(engine, now, key)
		key++
	})
}

// rawDemand converts a useful demand vector into host-level raw demand
// under an overhead profile and I/O contention inflation. Zero components
// stay zero, so Cap vectors pass through correctly.
func rawDemand(d resource.Vector, o OverheadProfile, inflate resource.Vector) resource.Vector {
	d = d.Set(resource.CPU, d.Get(resource.CPU)/o.CPU*inflate.Get(resource.CPU))
	d = d.Set(resource.DiskIO, d.Get(resource.DiskIO)/o.Disk*inflate.Get(resource.DiskIO))
	d = d.Set(resource.NetIO, d.Get(resource.NetIO)/o.Net*inflate.Get(resource.NetIO))
	return d
}

// usefulAlloc converts a raw host allocation back into useful units.
func usefulAlloc(a resource.Vector, o OverheadProfile, inflate resource.Vector) resource.Vector {
	a = a.Set(resource.CPU, a.Get(resource.CPU)*o.CPU/inflate.Get(resource.CPU))
	a = a.Set(resource.DiskIO, a.Get(resource.DiskIO)*o.Disk/inflate.Get(resource.DiskIO))
	a = a.Set(resource.NetIO, a.Get(resource.NetIO)*o.Net/inflate.Get(resource.NetIO))
	return a
}

// progressSpeed is the Leontief rate: the minimum allocation/demand ratio
// over the rate dimensions the consumer actually uses.
func progressSpeed(demand, alloc resource.Vector) float64 {
	speed := 1.0
	for _, k := range [...]resource.Kind{resource.CPU, resource.DiskIO, resource.NetIO} {
		d := demand.Get(k)
		if d <= 0 {
			continue
		}
		r := alloc.Get(k) / d
		if r < speed {
			speed = r
		}
	}
	if speed < 0 {
		return 0
	}
	return speed
}

func effWeight(w float64) float64 {
	if w <= 0 {
		return 1
	}
	return w
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
