// Package cluster simulates the hybrid data center of the HybridMR paper:
// physical machines (PMs) that can run work natively, in a Xen-style
// privileged domain (Dom-0), or host virtual machines (VMs) with
// virtualization overheads; live VM migration; and a linear
// utilization-to-power model.
//
// Execution is modeled as event-driven processor sharing. Work is
// expressed as Consumers: a consumer declares a full-speed demand vector
// (CPU cores, memory MB, disk MB/s, network MB/s) and an amount of work in
// full-speed seconds. Whenever the set of consumers on a PM changes, the
// PM re-solves a two-level weighted max-min fair allocation (VMs share the
// PM; tasks share their VM), each consumer's progress rate is the minimum
// ratio of allocation to demand across the rate dimensions (a Leontief
// machine model), and the next completion is scheduled on the shared
// discrete-event engine. The model reproduces the contention behaviours
// the paper measures: virtual I/O penalties that grow with VMs per PM,
// memory-overcommit thrashing, and exponential slowdown under cross-VM I/O
// contention.
package cluster

import (
	"fmt"
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

// XenGuestOverhead is the default profile of a paravirtualized guest VM.
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

func (p OverheadProfile) normalized() OverheadProfile {
	if p.CPU <= 0 || p.CPU > 1 {
		p.CPU = 1
	}
	if p.Disk <= 0 || p.Disk > 1 {
		p.Disk = 1
	}
	if p.Net <= 0 || p.Net > 1 {
		p.Net = 1
	}
	return p
}

// Config describes the hardware of every PM in a cluster and the
// virtualization cost model. The defaults mirror the paper's testbed:
// dual-core 2.4 GHz Opterons, 4 GB RAM, Ultra320 SCSI, 1 Gbps Ethernet.
type Config struct {
	// Cores is the number of physical cores per PM.
	Cores int
	// MemoryMB is physical RAM per PM.
	MemoryMB float64
	// DiskMBps is the sequential disk bandwidth per PM.
	DiskMBps float64
	// NetMBps is the NIC bandwidth per PM (1 Gbps ≈ 117 MB/s usable).
	NetMBps float64

	// PowerIdleW and PowerPeakW parameterize the linear power model
	// P(u) = idle + (peak-idle)*u_cpu.
	PowerIdleW float64
	PowerPeakW float64

	// GuestOverhead is applied to consumers inside VMs.
	GuestOverhead OverheadProfile
	// IOContentionPerVM is the extra inflation of virtual I/O demand per
	// additional VM concurrently performing I/O on the same PM. It models
	// the Dom-0 backend-driver bottleneck that makes the paper's virtual
	// HDFS numbers degrade super-linearly with VM count and data size.
	IOContentionPerVM float64
	// MemPenaltyExp shapes the thrashing slowdown under memory
	// overcommit: speed *= (capacity/demand)^MemPenaltyExp.
	MemPenaltyExp float64

	// DiskSeekOverloadFactor models seek thrashing on an oversubscribed
	// disk: when total demanded disk bandwidth exceeds capacity, the
	// effective capacity becomes C / (1 + k*(demand/C - 1)), capped by
	// DiskSeekMaxPenalty. This is what turns heavy cross-VM I/O
	// contention into the super-linear JCT blowup of Figure 6(c).
	DiskSeekOverloadFactor float64
	// DiskSeekMaxPenalty caps the seek-thrashing capacity divisor
	// (default 1.35: the elevator scheduler keeps oversubscribed
	// sequential streams at ~75% of peak bandwidth).
	DiskSeekMaxPenalty float64

	// MigrationDirtyFactor converts a VM's activity level into a memory
	// dirty rate (MB/s per unit of busy CPU+memory activity).
	MigrationDirtyFactor float64
	// MigrationStopCopyMB is the residual dirty set at which pre-copy
	// stops and the VM is suspended for the final copy.
	MigrationStopCopyMB float64

	// MigrationRetryBackoff is the initial delay before re-attempting a
	// migration whose destination failed mid-transfer; each further
	// retry doubles it.
	MigrationRetryBackoff time.Duration
	// MigrationMaxRetries bounds those re-attempts. Negative disables
	// retries entirely.
	MigrationMaxRetries int
}

// DefaultConfig returns the paper's testbed hardware.
func DefaultConfig() Config {
	return Config{
		Cores:                  2,
		MemoryMB:               4096,
		DiskMBps:               90,
		NetMBps:                117,
		PowerIdleW:             150,
		PowerPeakW:             250,
		GuestOverhead:          XenGuestOverhead(),
		IOContentionPerVM:      0.03,
		MemPenaltyExp:          2.2,
		DiskSeekOverloadFactor: 2.0,
		DiskSeekMaxPenalty:     1.35,
		MigrationDirtyFactor:   24,
		MigrationStopCopyMB:    32,
		MigrationRetryBackoff:  30 * time.Second,
		MigrationMaxRetries:    3,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Cores <= 0 {
		c.Cores = d.Cores
	}
	if c.MemoryMB <= 0 {
		c.MemoryMB = d.MemoryMB
	}
	if c.DiskMBps <= 0 {
		c.DiskMBps = d.DiskMBps
	}
	if c.NetMBps <= 0 {
		c.NetMBps = d.NetMBps
	}
	if c.PowerIdleW <= 0 {
		c.PowerIdleW = d.PowerIdleW
	}
	if c.PowerPeakW <= 0 {
		c.PowerPeakW = d.PowerPeakW
	}
	c.GuestOverhead = c.GuestOverhead.normalized()
	if c.GuestOverhead == NoOverhead() {
		c.GuestOverhead = d.GuestOverhead
	}
	if c.IOContentionPerVM <= 0 {
		c.IOContentionPerVM = d.IOContentionPerVM
	}
	if c.MemPenaltyExp <= 0 {
		c.MemPenaltyExp = d.MemPenaltyExp
	}
	if c.MigrationDirtyFactor <= 0 {
		c.MigrationDirtyFactor = d.MigrationDirtyFactor
	}
	if c.DiskSeekOverloadFactor <= 0 {
		c.DiskSeekOverloadFactor = d.DiskSeekOverloadFactor
	}
	if c.DiskSeekMaxPenalty <= 1 {
		c.DiskSeekMaxPenalty = d.DiskSeekMaxPenalty
	}
	if c.MigrationStopCopyMB <= 0 {
		c.MigrationStopCopyMB = d.MigrationStopCopyMB
	}
	if c.MigrationRetryBackoff <= 0 {
		c.MigrationRetryBackoff = d.MigrationRetryBackoff
	}
	if c.MigrationMaxRetries == 0 {
		c.MigrationMaxRetries = d.MigrationMaxRetries
	} else if c.MigrationMaxRetries < 0 {
		c.MigrationMaxRetries = 0
	}
	return c
}

// Cluster is a collection of PMs and the VMs they host, sharing one
// simulation engine.
type Cluster struct {
	engine *sim.Engine
	cfg    Config
	rng    *rand.Rand
	pms    []*PM
	vms    []*VM

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

// New creates an empty cluster. Zero-valued Config fields take the paper's
// testbed defaults. The cluster records migration lifecycle decisions
// (start, completion, abort, retry, abandonment) on the handle's audit
// log, and migration completions and PM power transitions as windowed
// time series; a nil handle records nothing.
func New(engine *sim.Engine, cfg Config, seed int64, sinks *obs.Sinks) *Cluster {
	o := obs.Of(sinks)
	reg := o.Metrics
	return &Cluster{
		engine:   engine,
		cfg:      cfg.withDefaults(),
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

// Config returns the effective (defaulted) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// TopologyGen returns a counter that changes whenever a node's physical
// placement or rack changes: a VM is provisioned, attaches to a
// migration destination or is destroyed, or a PM's rack label is set.
// Callers caching per-machine or per-rack answers over many nodes
// compare it to rebuild only when the layout actually moved.
func (c *Cluster) TopologyGen() uint64 { return c.topoGen }

// AddPM provisions a physical machine.
func (c *Cluster) AddPM(name string) *PM {
	pm := &PM{
		name:    name,
		cluster: c,
		capacity: resource.NewVector(
			float64(c.cfg.Cores), c.cfg.MemoryMB, c.cfg.DiskMBps, c.cfg.NetMBps),
		nativeOverhead: NoOverhead(),
	}
	c.pms = append(c.pms, pm)
	return pm
}

// AddPMs provisions n physical machines named prefix-0..n-1.
func (c *Cluster) AddPMs(prefix string, n int) []*PM {
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
	if vcpus <= 0 {
		return nil, fmt.Errorf("cluster: AddVM(%s): vcpus must be positive", name)
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
		name:     name,
		host:     host,
		vcpus:    vcpus,
		memMB:    memMB,
		state:    VMRunning,
		overhead: c.cfg.GuestOverhead,
		weight:   float64(vcpus),
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

// FleetStats walks the fleet once and returns its power draw, mean
// utilization and powered-on count — the energy recorder's view. Each
// sum runs in PM order over the per-PM values, and a powered-off PM adds
// nothing to any of them.
func (c *Cluster) FleetStats() FleetStats {
	var s FleetStats
	var sum resource.Vector
	for _, pm := range c.pms {
		if pm.off {
			continue
		}
		u := pm.Utilization()
		s.PowerW += pm.powerAt(u)
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

// PoweredOnPMs counts PMs that are not powered off.
func (c *Cluster) PoweredOnPMs() int {
	n := 0
	for _, pm := range c.pms {
		if !pm.off {
			n++
		}
	}
	return n
}
