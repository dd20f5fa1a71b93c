// Package cluster simulates the hybrid data center of the HybridMR paper:
// physical machines (PMs) that can run work natively, in a Xen-style
// privileged domain (Dom-0), or host virtual machines (VMs) with
// virtualization overheads; live VM migration; and a linear
// utilization-to-power model.
//
// Execution is modeled as event-driven processor sharing. Work is
// expressed as Consumers: a consumer declares a full-speed demand vector
// (CPU cores, memory MB, disk MB/s, network MB/s) and an amount of work in
// full-speed seconds. Whenever the set of consumers on a PM or their
// demands, caps or weights change, the PM re-solves a two-level weighted
// max-min fair allocation (VMs share the PM; tasks share their VM), each
// consumer's progress rate is the minimum ratio of allocation to demand
// across the rate dimensions (a Leontief machine model), and the next
// completion is scheduled on the shared discrete-event engine. Re-solves
// are demand-driven: a change settles progress, reserves the completion
// events' tie order and marks the PM stale, and the solve runs at the
// first read of an allocation or at the flush the engine runs before it
// pops the next event, so several changes to one PM at one instant cost
// one solve and the same outcome. A cap or weight change of a VM's
// member marks only that VM, and its solve re-divides just the VM's
// cached share among its members. The model reproduces the contention
// behaviours the paper measures: virtual I/O penalties that grow with VMs
// per PM, memory-overcommit thrashing, and exponential slowdown under
// cross-VM I/O contention.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/audit"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// OverheadProfile gives the efficiency of each resource dimension under a
// virtualization layer, as fractions of native (1.0 = no overhead). The
// defaults follow the paper's Section II measurements and [Barham et al.,
// SOSP'03]: ~5% CPU overhead, ~15-20% I/O overhead.
type OverheadProfile struct {
	CPU  float64
	Disk float64
	Net  float64
}

// NoOverhead is the profile of bare-metal execution.
func NoOverhead() OverheadProfile { return OverheadProfile{CPU: 1, Disk: 1, Net: 1} }

// XenGuestOverhead is the profile of every paravirtualized guest VM.
// Xen-3.4-era paravirtual networking in particular cost far more than
// block I/O at gigabit rates, which is why the paper finds cross-host VM
// communication so expensive.
func XenGuestOverhead() OverheadProfile {
	return OverheadProfile{CPU: 0.95, Disk: 0.87, Net: 0.62}
}

// Dom0Overhead is the profile of quasi-native execution in the privileged
// domain, which the paper measures at under 5% overhead on average.
func Dom0Overhead() OverheadProfile {
	return OverheadProfile{CPU: 0.99, Disk: 0.975, Net: 0.98}
}

// Config describes what varies between clusters: the core count of
// every PM. The rest of the hardware and the virtualization cost model
// are the paper's testbed, fixed below.
type Config struct {
	// Cores is the number of physical cores per PM; zero means 2, the
	// testbed's dual-core Opterons.
	Cores int
}

// The paper's testbed hardware: 2.4 GHz Opterons with 4 GB RAM,
// Ultra320 SCSI and 1 Gbps Ethernet, under Xen 3.4.
const (
	// memoryMB is physical RAM per PM.
	memoryMB float64 = 4096
	// diskMBps is the sequential disk bandwidth per PM.
	diskMBps float64 = 90
	// netMBps is the NIC bandwidth per PM (1 Gbps ≈ 117 MB/s usable).
	netMBps float64 = 117

	// PowerIdleW and powerPeakW parameterize the linear power model
	// P(u) = idle + (peak-idle)*u_cpu.
	PowerIdleW float64 = 150
	powerPeakW float64 = 250

	// ioContentionPerVM is the extra inflation of virtual I/O demand per
	// additional VM concurrently performing I/O on the same PM. It models
	// the Dom-0 backend-driver bottleneck that makes the paper's virtual
	// HDFS numbers degrade super-linearly with VM count and data size.
	ioContentionPerVM float64 = 0.03
	// memPenaltyExp shapes the thrashing slowdown under memory
	// overcommit: speed *= (capacity/demand)^memPenaltyExp.
	memPenaltyExp float64 = 2.2

	// diskSeekOverloadFactor models seek thrashing on an oversubscribed
	// disk: when total demanded disk bandwidth exceeds capacity, the
	// effective capacity becomes C / (1 + k*(demand/C - 1)²), capped by
	// diskSeekMaxPenalty. This is what turns heavy cross-VM I/O
	// contention into the super-linear JCT blowup of Figure 6(c).
	diskSeekOverloadFactor float64 = 2.0
	// diskSeekMaxPenalty caps the seek-thrashing capacity divisor: the
	// elevator scheduler keeps oversubscribed sequential streams at ~75%
	// of peak bandwidth.
	diskSeekMaxPenalty float64 = 1.35

	// migrationDirtyFactor converts a VM's activity level into a memory
	// dirty rate (MB/s per unit of busy CPU+memory activity).
	migrationDirtyFactor float64 = 24
	// migrationStopCopyMB is the residual dirty set at which pre-copy
	// stops and the VM is suspended for the final copy.
	migrationStopCopyMB float64 = 32

	// migrationRetryBackoff is the initial delay before re-attempting a
	// migration whose destination failed mid-transfer; each further
	// retry doubles it.
	migrationRetryBackoff time.Duration = 30 * time.Second
	// migrationMaxRetries bounds those re-attempts.
	migrationMaxRetries int = 3
)

// Cluster is a collection of PMs and the VMs they host, sharing one
// simulation engine.
type Cluster struct {
	engine *sim.Engine
	cores  int
	rng    *rand.Rand
	pms    []*PM
	vms    []*VM
	// fleet is the fleet table: one row per PM, in PM order, holding
	// what the energy recorder reads of each machine, so its sample
	// streams one contiguous table instead of visiting every PM.
	fleet []fleetRow

	// migrations tracks in-flight live migrations so machine failures
	// can unwind them.
	migrations []*migration

	// partitions are the currently active network splits (topology.go).
	partitions []*Partition

	// topoGen counts changes to where nodes sit: a VM gaining, changing
	// or losing its host, or a PM's rack label changing. See
	// TopologyGen.
	topoGen uint64

	// solve is the fair-share scratch every PM's re-solve reuses.
	solve solveScratch

	// dirty lists the PMs with a re-solve request not yet flushed, in
	// request order; flushFn is flush, bound once for Engine.Defer.
	dirty   []*PM
	flushFn func()

	tracer   *trace.Tracer
	auditLog *audit.Log
	inv      InvariantSink
	ts       *timeseries.Collector

	// Cached metric handles; nil (a no-op) without a registry.
	mMigrations        *trace.Counter
	mMigrationDowntime *trace.Histogram
	mPowerTransitions  *trace.Counter
	mVMPauses          *trace.Counter
	mMigrationsAborted *trace.Counter
	mMigrationRetries  *trace.Counter
	mVMCrashes         *trace.Counter
	mPMCrashes         *trace.Counter
}

// New creates an empty cluster. The cluster records migration lifecycle
// decisions (start, completion, abort, retry, abandonment) on the
// handle's audit log, and migration completions and PM power transitions
// as windowed time series; a nil handle records nothing.
func New(engine *sim.Engine, cfg Config, seed int64, sinks *obs.Sinks) *Cluster {
	o := obs.Of(sinks)
	reg := o.Metrics
	if cfg.Cores <= 0 {
		cfg.Cores = 2
	}
	c := &Cluster{
		engine:   engine,
		cores:    cfg.Cores,
		rng:      rand.New(rand.NewSource(seed)),
		tracer:   o.Tracer,
		auditLog: o.Audit,
		ts:       o.TimeSeries,

		mMigrations:        reg.Counter("cluster.migrations.completed"),
		mMigrationDowntime: reg.Histogram("cluster.migration.downtime_sec"),
		mPowerTransitions:  reg.Counter("cluster.pm.power_transitions"),
		mVMPauses:          reg.Counter("cluster.vm.pauses"),
		mMigrationsAborted: reg.Counter("cluster.migrations.aborted"),
		mMigrationRetries:  reg.Counter("cluster.migrations.retried"),
		mVMCrashes:         reg.Counter("cluster.vm.crashes"),
		mPMCrashes:         reg.Counter("cluster.pm.crashes"),
	}
	c.flushFn = c.flush
	return c
}

// enqueue puts a PM with a fresh re-solve request on the flush list,
// asking the engine for a flush when the list was empty.
func (c *Cluster) enqueue(pm *PM) {
	if len(c.dirty) == 0 {
		c.engine.Defer(c.flushFn)
	}
	c.dirty = append(c.dirty, pm)
}

// flush solves every PM with a pending request and re-keys its
// completion events. The engine runs it before it pops the next event
// or moves its clock, so no event fires and no time passes on a stale
// allocation.
func (c *Cluster) flush() {
	for i, pm := range c.dirty {
		c.dirty[i] = nil
		pm.queued = false
		pm.solve()
		pm.rekey()
	}
	c.dirty = c.dirty[:0]
}

// Engine returns the shared simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.engine }

// InvariantSink receives cluster-level safety events; the invariant
// checker implements it. All methods must tolerate being called from
// inside event callbacks.
type InvariantSink interface {
	// MigrationCommitted fires at the stop-and-copy commit point, when
	// the VM attaches to its destination.
	MigrationCommitted(vm *VM, from, to *PM)
}

// SetInvariants installs an invariant sink. A nil sink keeps checking
// off.
func (c *Cluster) SetInvariants(s InvariantSink) { c.inv = s }

// TopologyGen returns a counter that changes whenever a node's physical
// placement or rack changes: a VM is provisioned, attaches to a
// migration destination or is destroyed, or a PM's rack label is set.
// Callers caching per-machine or per-rack answers over many nodes
// compare it to rebuild only when the layout actually moved.
func (c *Cluster) TopologyGen() uint64 { return c.topoGen }

// fleetRow is one PM's row in the fleet table.
type fleetRow struct {
	// util is the machine's raw usage divided by capacity, clamped to
	// [0, 1] per dimension, as of its latest solve.
	util resource.Vector
	// off is set while the machine is powered off or failed.
	off bool
}

// AddPM provisions a physical machine.
func (c *Cluster) AddPM(name string) *PM {
	pm := &PM{
		name:           name,
		cluster:        c,
		capacity:       resource.NewVector(float64(c.cores), memoryMB, diskMBps, netMBps),
		nativeOverhead: NoOverhead(),
		idx:            len(c.pms),
	}
	c.pms = append(c.pms, pm)
	c.fleet = append(c.fleet, fleetRow{})
	return pm
}

// AddPMs provisions n physical machines named prefix-0..n-1. The PM
// list and the fleet table grow by exactly n, not by append's doubling:
// at fleet scale the slack would be live heap for the whole run.
func (c *Cluster) AddPMs(prefix string, n int) []*PM {
	c.pms = growExact(c.pms, n)
	c.fleet = growExact(c.fleet, n)
	out := make([]*PM, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, c.AddPM(fmt.Sprintf("%s-%d", prefix, i)))
	}
	return out
}

// AddVM provisions a VM on host with the given vCPU count and memory.
func (c *Cluster) AddVM(name string, host *PM, vcpus int, memMB float64) (*VM, error) {
	if host == nil {
		return nil, fmt.Errorf("cluster: AddVM(%s): nil host", name)
	}
	if vcpus <= 0 || vcpus > math.MaxInt32 {
		return nil, fmt.Errorf("cluster: AddVM(%s): vcpus must be in [1, %d]", name, math.MaxInt32)
	}
	if memMB <= 0 {
		return nil, fmt.Errorf("cluster: AddVM(%s): memory must be positive", name)
	}
	var committed float64
	for _, vm := range host.vms {
		committed += vm.memMB
	}
	if committed+memMB > host.capacity.Get(resource.Memory) {
		return nil, fmt.Errorf("cluster: AddVM(%s): host %s memory exhausted (%.0f+%.0f > %.0f MB)",
			name, host.name, committed, memMB, host.capacity.Get(resource.Memory))
	}
	vm := &VM{
		name:   name,
		host:   host,
		vcpus:  int32(vcpus),
		memMB:  memMB,
		state:  VMRunning,
		weight: float64(vcpus),
	}
	host.vms = append(host.vms, vm)
	c.vms = append(c.vms, vm)
	c.topoGen++
	host.update()
	if c.tracer != nil {
		c.tracer.Instant(vm.name, "vm", "boot",
			trace.S("host", host.name),
			trace.F("vcpus", float64(vcpus)),
			trace.F("mem_mb", memMB))
	}
	return vm, nil
}

// SpreadVMs provisions total VMs named prefix-0..total-1 round-robin
// across hosts, each with the given shape. It is how the experiments build
// the paper's "k VMs per PM" layouts.
func (c *Cluster) SpreadVMs(prefix string, total int, hosts []*PM, vcpus int, memMB float64) ([]*VM, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("cluster: SpreadVMs: no hosts")
	}
	out := make([]*VM, 0, total)
	for i := 0; i < total; i++ {
		vm, err := c.AddVM(fmt.Sprintf("%s-%d", prefix, i), hosts[i%len(hosts)], vcpus, memMB)
		if err != nil {
			return nil, err
		}
		out = append(out, vm)
	}
	return out, nil
}

// PMs returns the physical machines in provisioning order.
func (c *Cluster) PMs() []*PM {
	out := make([]*PM, len(c.pms))
	copy(out, c.pms)
	return out
}

// VMs returns all VMs in provisioning order.
func (c *Cluster) VMs() []*VM {
	out := make([]*VM, len(c.vms))
	copy(out, c.vms)
	return out
}

// FleetStats is one observation of the fleet's power and load.
type FleetStats struct {
	// PowerW is the total instantaneous draw of the powered-on PMs.
	PowerW float64
	// Util is the per-resource mean utilization across powered-on PMs.
	Util resource.Vector
	// PMsOn counts the powered-on PMs, as PoweredOnPMs.
	PMsOn int
}

// growExact returns s with room for n more elements, reallocating to
// exactly len(s)+n when it lacks the room.
func growExact[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	t := make([]E, len(s), len(s)+n)
	copy(t, s)
	return t
}

// FleetStats returns the fleet's power draw, mean utilization and
// powered-on count — the energy recorder's view. It solves the machines
// still waiting for a flush, then streams the fleet table: each sum runs
// in PM order over the per-PM values, and a powered-off PM adds nothing
// to any of them, exactly as a walk calling PowerW and Utilization on
// every PM would.
func (c *Cluster) FleetStats() FleetStats {
	for _, pm := range c.dirty {
		pm.solve()
	}
	var s FleetStats
	var sum resource.Vector
	for i := range c.fleet {
		r := &c.fleet[i]
		if r.off {
			continue
		}
		s.PowerW += c.powerAt(r.util)
		sum = sum.Add(r.util)
		s.PMsOn++
	}
	if s.PMsOn > 0 {
		for _, k := range resource.Kinds() {
			s.Util = s.Util.Set(k, sum.Get(k)/float64(s.PMsOn))
		}
	}
	return s
}

// powerAt is the linear power model at utilization u, the one definition
// PM.PowerW and FleetStats share.
func (c *Cluster) powerAt(u resource.Vector) float64 {
	return PowerIdleW + (powerPeakW-PowerIdleW)*u.Get(resource.CPU)
}

// PoweredOnPMs counts PMs that are not powered off.
func (c *Cluster) PoweredOnPMs() int {
	n := 0
	for i := range c.fleet {
		if !c.fleet[i].off {
			n++
		}
	}
	return n
}
