// Package fault is a seed-deterministic fault injector for the simulated
// data center. Driven entirely by the simulation engine's virtual clock
// (never the wall clock), it crashes and repairs physical machines,
// crashes individual VMs, wedges TaskTracker daemons, corrupts DFS block
// replicas, and injects stragglers (per-machine slowdowns) — either from
// a declarative schedule or from a rate-based chaos profile whose event
// times are drawn from seeded exponential interarrivals. Same seed, same
// faults, same trace bytes: the repeatability that CloudSim-style
// simulators demand of failure scenarios.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/perfstat"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Kind names a fault class. The string values double as the tokens of
// the -faults command-line syntax.
type Kind string

// Fault kinds.
const (
	PMCrash     Kind = "pm-crash"
	PMRepair    Kind = "pm-repair"
	VMCrash     Kind = "vm-crash"
	TrackerHang Kind = "tracker-hang"
	BlockLoss   Kind = "block-loss"
	Straggler   Kind = "straggler"

	// Correlated kinds take out a whole failure domain at once. Targets
	// are domain names (a rack or power-domain label), resolved into
	// member machines at fire time and crashed as one atomic batch.
	RackCrash        Kind = "rack-crash"
	PowerDomainCrash Kind = "power-crash"
	// NetPartition isolates a rack from the control plane for Duration
	// (heal-able: the machines keep running, only traffic is cut).
	NetPartition Kind = "net-partition"
)

// kinds lists the profile-driven kinds in a fixed order; each gets its
// own derived rng stream so changing one rate cannot shift another
// kind's event times. New kinds append — reordering would reshuffle the
// per-kind seeds and change every existing seeded scenario.
var profileKinds = [...]Kind{PMCrash, VMCrash, TrackerHang, BlockLoss, Straggler,
	RackCrash, PowerDomainCrash, NetPartition}

// ScheduledFault is one declarative injection: at simulation time At,
// inject Kind against Target (a PM, VM or tracker-compute-node name;
// unused for BlockLoss). Duration bounds transient faults (hangs,
// stragglers) and Factor is the straggler slowdown.
type ScheduledFault struct {
	At       time.Duration
	Kind     Kind
	Target   string
	Duration time.Duration
	Factor   float64
}

// Profile is a rate-based chaos description: Poisson arrivals per kind,
// up to Horizon. Zero rates inject nothing of that kind.
type Profile struct {
	// PMCrashPerHour is the rate of whole-machine crashes. Crashed PMs
	// are repaired (powered back on) RepairAfter later.
	PMCrashPerHour float64
	// VMCrashPerHour is the rate of single-VM crashes (guest panics).
	VMCrashPerHour float64
	// TrackerHangPerHour is the rate of transient TaskTracker daemon
	// hangs, each lasting HangDuration.
	TrackerHangPerHour float64
	// BlockLossPerHour is the rate of DFS replica corruption events.
	BlockLossPerHour float64
	// StragglerPerHour is the rate of injected stragglers: a machine
	// runs StragglerFactor times slower for StragglerDuration.
	StragglerPerHour float64
	// RackCrashPerHour is the rate of whole-rack crashes (top-of-rack
	// switch or shared chassis failure). Injects nothing on clusters
	// with no rack topology assigned.
	RackCrashPerHour float64
	// PowerDomainCrashPerHour is the rate of power-domain crashes (a
	// PDU or circuit dropping every machine it feeds).
	PowerDomainCrashPerHour float64
	// NetPartitionPerHour is the rate of rack-level network partitions;
	// each heals after PartitionHealAfter.
	NetPartitionPerHour float64

	// RepairAfter is the crash-to-repair delay for PM crashes
	// (default 120 s). Zero or negative disables repair.
	RepairAfter time.Duration
	// PartitionHealAfter is how long an injected network partition
	// lasts before it heals (default 90 s).
	PartitionHealAfter time.Duration
	// HangDuration is how long a hung tracker stays wedged (default 45 s).
	HangDuration time.Duration
	// StragglerDuration is how long an injected slowdown lasts
	// (default 60 s).
	StragglerDuration time.Duration
	// StragglerFactor is the injected slowdown (default 3.0).
	StragglerFactor float64
	// Horizon bounds chaos generation (default 1 h of simulated time).
	Horizon time.Duration
}

func (p Profile) withDefaults() Profile {
	if p.RepairAfter == 0 {
		p.RepairAfter = 120 * time.Second
	}
	if p.HangDuration <= 0 {
		p.HangDuration = 45 * time.Second
	}
	if p.StragglerDuration <= 0 {
		p.StragglerDuration = 60 * time.Second
	}
	if p.StragglerFactor <= 1 {
		p.StragglerFactor = 3
	}
	if p.PartitionHealAfter <= 0 {
		p.PartitionHealAfter = 90 * time.Second
	}
	if p.Horizon <= 0 {
		p.Horizon = time.Hour
	}
	return p
}

// Options configures an Injector.
type Options struct {
	// Seed fixes every randomized choice (targets and arrival times).
	Seed int64
	// Schedule lists declarative injections, fired exactly as written.
	Schedule []ScheduledFault
	// Profile, when non-nil, adds rate-based chaos on top.
	Profile *Profile
}

// Env is the injector's view of the stack. Multiple filesystems and
// jobtrackers (the hybrid rig's native and virtual partitions) all learn
// about every machine loss.
type Env struct {
	Engine  *sim.Engine
	Cluster *cluster.Cluster
	FSs     []*dfs.FileSystem
	JTs     []*mapred.JobTracker
	// Obs is the stack's observer handle; nil records nothing. The
	// injector traces, counts and times every injection, and audits it
	// so recovery actions can be traced back to their trigger.
	Obs *obs.Sinks
}

// Injector schedules and applies faults. Its manual methods (CrashPM,
// CrashVM, ...) are also the single place that propagates a failure
// through every layer in the right order, so tests and scenarios use
// them directly.
type Injector struct {
	env      Env
	opts     Options
	armed    bool
	tracer   *trace.Tracer
	reg      *trace.Registry
	auditLog *audit.Log
	perf     *perfstat.Stats
	inv      InvariantSink
	byKind   map[Kind]int
	// trackers is TrackerHang's draw population, every JobTracker's
	// trackers in order, rebuilt in place at each draw.
	trackers []*mapred.TaskTracker
}

// InvariantSink is notified after every injection so a runtime checker
// can sweep cross-layer safety invariants at the moment they are most
// likely to break. The injector never imports the checker; any type
// with this method plugs in.
type InvariantSink interface {
	Injected(kind, target string)
}

// SetInvariants installs an invariant checker. A nil sink keeps the
// checks off.
func (in *Injector) SetInvariants(s InvariantSink) { in.inv = s }

// NewInjector builds an injector over the environment. Nothing fires
// until Arm.
func NewInjector(env Env, opts Options) *Injector {
	o := obs.Of(env.Obs)
	return &Injector{
		env: env, opts: opts, byKind: make(map[Kind]int),
		tracer: o.Tracer, reg: o.Metrics, auditLog: o.Audit, perf: o.Perf,
	}
}

// Env returns the stack the injector was built over.
func (in *Injector) Env() Env { return in.env }

// Injections returns how many faults of each kind have fired so far.
func (in *Injector) Injections() map[Kind]int {
	out := make(map[Kind]int, len(in.byKind))
	for k, v := range in.byKind {
		out[k] = v
	}
	return out
}

// Summary formats the injection counts in a fixed kind order.
func (in *Injector) Summary() string {
	keys := make([]string, 0, len(in.byKind))
	for k := range in.byKind {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", k, in.byKind[Kind(k)])
	}
	if s == "" {
		s = "none"
	}
	return s
}

func (in *Injector) record(kind Kind, target string, args ...trace.Arg) {
	in.byKind[kind]++
	if in.perf != nil {
		in.perf.C.FaultInjections++
	}
	in.reg.Counter("fault." + string(kind)).Inc()
	in.reg.Counter("fault.injections_by_kind." + string(kind)).Inc()
	if in.tracer != nil {
		all := append([]trace.Arg{trace.S("target", target)}, args...)
		in.tracer.Instant("fault", "fault", string(kind), all...)
	}
	in.auditLog.Add("fault", string(kind), target, "injected",
		"deterministic fault injection (schedule or seeded chaos profile)")
	if in.inv != nil {
		in.inv.Injected(string(kind), target)
	}
}

// retarget walks a drawn index forward (wrapping) to the first eligible
// entity in a fixed-order population. The draw itself always spans the
// full population, so a kind's rng stream consumes exactly one value
// per arrival no matter how many entities are currently dead; a draw
// that lands on an ineligible target is re-aimed deterministically
// instead of silently no-oping. Returns -1 when nothing is eligible.
func (in *Injector) retarget(idx, n int, eligible func(int) bool) int {
	for step := 0; step < n; step++ {
		j := (idx + step) % n
		if !eligible(j) {
			continue
		}
		if step > 0 {
			if in.perf != nil {
				in.perf.C.FaultRetargets++
			}
			in.reg.Counter("fault.retargets").Inc()
		}
		return j
	}
	return -1
}

// Arm schedules the declarative schedule and, when a profile is set,
// pre-draws the chaos arrival times onto the engine. Arm is idempotent.
func (in *Injector) Arm() error {
	if in.armed {
		return nil
	}
	in.armed = true
	for _, f := range in.opts.Schedule {
		f := f
		if f.At < in.env.Engine.Now() {
			return fmt.Errorf("fault: scheduled %s at %s is in the past", f.Kind, f.At)
		}
		in.env.Engine.At(f.At, func() { in.fireScheduled(f) })
	}
	if in.opts.Profile != nil {
		in.armChaos(*in.opts.Profile)
	}
	return nil
}

// fireScheduled applies one declarative injection, resolving the target
// by name at fire time (the named machine may already be gone; the
// injection is then a no-op).
func (in *Injector) fireScheduled(f ScheduledFault) {
	in.perf.Enter("fault.inject")
	defer in.perf.Exit()
	switch f.Kind {
	case PMCrash:
		if pm := in.findPM(f.Target); pm != nil {
			in.CrashPM(pm)
		}
	case PMRepair:
		if pm := in.findPM(f.Target); pm != nil {
			in.RepairPM(pm)
		}
	case VMCrash:
		if vm := in.findVM(f.Target); vm != nil {
			in.CrashVM(vm)
		}
	case TrackerHang:
		if tr := in.findTracker(f.Target); tr != nil {
			d := f.Duration
			if d <= 0 {
				d = 45 * time.Second
			}
			in.HangTracker(tr, d)
		}
	case BlockLoss:
		// The declarative form corrupts the first corruptible replica,
		// deterministically.
		in.loseReplica(nil)
	case Straggler:
		if pm := in.findPM(f.Target); pm != nil {
			factor := f.Factor
			if factor <= 1 {
				factor = 3
			}
			d := f.Duration
			if d <= 0 {
				d = 60 * time.Second
			}
			in.SlowPM(pm, factor, d)
		}
	case RackCrash:
		in.CrashRack(f.Target)
	case PowerDomainCrash:
		in.CrashPowerDomain(f.Target)
	case NetPartition:
		d := f.Duration
		if d <= 0 {
			d = 90 * time.Second
		}
		in.PartitionRack(f.Target, d)
	}
}

// armChaos pre-draws per-kind Poisson arrivals up to the horizon. Each
// kind owns an independent rng stream (seed + fixed offset), used both
// for its arrival times here and for its target choices at fire time;
// the engine's deterministic event order keeps the draw sequence stable.
func (in *Injector) armChaos(p Profile) {
	p = p.withDefaults()
	start := in.env.Engine.Now()
	for i, kind := range profileKinds {
		rate := 0.0
		switch kind {
		case PMCrash:
			rate = p.PMCrashPerHour
		case VMCrash:
			rate = p.VMCrashPerHour
		case TrackerHang:
			rate = p.TrackerHangPerHour
		case BlockLoss:
			rate = p.BlockLossPerHour
		case Straggler:
			rate = p.StragglerPerHour
		case RackCrash:
			rate = p.RackCrashPerHour
		case PowerDomainCrash:
			rate = p.PowerDomainCrashPerHour
		case NetPartition:
			rate = p.NetPartitionPerHour
		}
		if rate <= 0 {
			continue
		}
		kind := kind
		rng := rand.New(rand.NewSource(in.opts.Seed + int64(i)*7919))
		at := time.Duration(0)
		for {
			gapHours := -math.Log(1-rng.Float64()) / rate
			at += time.Duration(gapHours * float64(time.Hour))
			if at > p.Horizon {
				break
			}
			in.env.Engine.At(start+at, func() { in.fireChaos(kind, p, rng) })
		}
	}
}

// fireChaos applies one profile-driven injection against a target drawn
// from the kind's rng. Draws span the full fixed-order population and
// re-aim via retarget, so a draw landing on an already-dead machine
// still injects somewhere instead of silently fizzling.
func (in *Injector) fireChaos(kind Kind, p Profile, rng *rand.Rand) {
	in.perf.Enter("fault.inject")
	defer in.perf.Exit()
	switch kind {
	case PMCrash:
		// Never take the last machine: a cluster with nothing left is a
		// different experiment.
		pop := in.env.Cluster.PMs()
		if len(pop) == 0 || len(in.livePMs()) <= 1 {
			return
		}
		idx := in.retarget(rng.Intn(len(pop)), len(pop), func(i int) bool { return !pop[i].Failed() })
		if idx < 0 {
			return
		}
		pm := pop[idx]
		in.CrashPM(pm)
		if p.RepairAfter > 0 {
			in.env.Engine.After(p.RepairAfter, func() { in.RepairPM(pm) })
		}
	case VMCrash:
		// The VM inventory shrinks permanently (a destroyed VM never
		// comes back), so this draw stays over the live list rather than
		// a fixed population.
		candidates := in.liveVMs()
		if len(candidates) <= 2 {
			return // keep a quorum of workers alive
		}
		in.CrashVM(candidates[rng.Intn(len(candidates))])
	case TrackerHang:
		pop := in.trackers[:0]
		for _, jt := range in.env.JTs {
			jt.EachTracker(func(tr *mapred.TaskTracker) { pop = append(pop, tr) })
		}
		in.trackers = pop
		if len(pop) == 0 {
			return
		}
		idx := in.retarget(rng.Intn(len(pop)), len(pop), func(i int) bool {
			return !pop[i].Lost() && !pop[i].Hung()
		})
		if idx < 0 {
			return
		}
		in.HangTracker(pop[idx], p.HangDuration)
	case BlockLoss:
		in.loseReplica(rng)
	case Straggler:
		pop := in.env.Cluster.PMs()
		if len(pop) == 0 {
			return
		}
		idx := in.retarget(rng.Intn(len(pop)), len(pop), func(i int) bool { return !pop[i].Failed() })
		if idx < 0 {
			return
		}
		in.SlowPM(pop[idx], p.StragglerFactor, p.StragglerDuration)
	case RackCrash, PowerDomainCrash:
		domains := in.env.Cluster.Racks()
		members := in.env.Cluster.PMsInRack
		if kind == PowerDomainCrash {
			domains = in.env.Cluster.PowerDomains()
			members = in.env.Cluster.PMsInPowerDomain
		}
		if len(domains) == 0 {
			return
		}
		idx := in.retarget(rng.Intn(len(domains)), len(domains), func(i int) bool {
			return in.domainCrashable(members(domains[i]))
		})
		if idx < 0 {
			return
		}
		var crashed []*cluster.PM
		if kind == RackCrash {
			crashed = in.CrashRack(domains[idx])
		} else {
			crashed = in.CrashPowerDomain(domains[idx])
		}
		if p.RepairAfter > 0 {
			for _, pm := range crashed {
				pm := pm
				in.env.Engine.After(p.RepairAfter, func() { in.RepairPM(pm) })
			}
		}
	case NetPartition:
		racks := in.env.Cluster.Racks()
		if len(racks) == 0 {
			return
		}
		idx := in.retarget(rng.Intn(len(racks)), len(racks), func(i int) bool {
			return in.rackPartitionable(racks[i])
		})
		if idx < 0 {
			return
		}
		in.PartitionRack(racks[idx], p.PartitionHealAfter)
	}
}

// domainCrashable reports whether crashing the domain is a meaningful
// injection: it has at least one live member, and at least one live
// machine survives elsewhere.
func (in *Injector) domainCrashable(members []*cluster.PM) bool {
	liveIn := 0
	for _, pm := range members {
		if !pm.Failed() {
			liveIn++
		}
	}
	return liveIn > 0 && len(in.livePMs())-liveIn >= 1
}

// rackPartitionable reports whether isolating the rack cuts anything:
// at least one live not-yet-isolated member, and at least one live
// machine outside the rack to stay with the control plane.
func (in *Injector) rackPartitionable(name string) bool {
	cut := 0
	for _, pm := range in.env.Cluster.PMsInRack(name) {
		if !pm.Failed() && !in.env.Cluster.Isolated(pm) {
			cut++
		}
	}
	if cut == 0 {
		return false
	}
	for _, pm := range in.livePMs() {
		if pm.Rack() != name {
			return true
		}
	}
	return false
}

// CrashPM fails a physical machine and propagates the loss through every
// layer in the order recovery requires: jobtrackers first (so re-queued
// tasks cannot land back on the dying machine), then the cluster failure
// itself (killing consumers and destroying VMs, aborting in-flight
// migrations), then the filesystems (pruning dead DataNodes and
// re-replicating what they held). Crashing an already-failed machine is
// a no-op. Returns the merged DFS damage report.
func (in *Injector) CrashPM(pm *cluster.PM) dfs.FailureReport {
	if pm == nil || pm.Failed() {
		return dfs.FailureReport{}
	}
	in.record(PMCrash, pm.Name())
	return in.crashPMs([]*cluster.PM{pm})
}

// CrashPMs fails several machines as one correlated event: every
// jobtracker learns about the whole batch before any machine dies, so
// work re-queued for the first victim cannot land on the second, and
// the filesystems see one merged damage report. Records one pm-crash
// per machine; already-failed machines are skipped.
func (in *Injector) CrashPMs(pms []*cluster.PM) dfs.FailureReport {
	targets := crashable(pms)
	for _, pm := range targets {
		in.record(PMCrash, pm.Name())
	}
	return in.crashPMs(targets)
}

// CrashRack fails every live machine in the named rack as one atomic
// batch — a top-of-rack switch or shared chassis going down. Returns
// the machines crashed (nil when the rack is empty or already dead).
func (in *Injector) CrashRack(name string) []*cluster.PM {
	targets := crashable(in.env.Cluster.PMsInRack(name))
	if len(targets) == 0 {
		return nil
	}
	in.record(RackCrash, name, trace.F("machines", float64(len(targets))))
	in.crashPMs(targets)
	return targets
}

// CrashPowerDomain fails every live machine fed by the named power
// domain as one atomic batch — a PDU or circuit failure that cross-cuts
// racks. Returns the machines crashed.
func (in *Injector) CrashPowerDomain(name string) []*cluster.PM {
	targets := crashable(in.env.Cluster.PMsInPowerDomain(name))
	if len(targets) == 0 {
		return nil
	}
	in.record(PowerDomainCrash, name, trace.F("machines", float64(len(targets))))
	in.crashPMs(targets)
	return targets
}

// crashable filters a machine set down to the ones a crash would
// actually take out.
func crashable(pms []*cluster.PM) []*cluster.PM {
	var out []*cluster.PM
	for _, pm := range pms {
		if pm != nil && !pm.Failed() {
			out = append(out, pm)
		}
	}
	return out
}

// crashPMs is the atomic mechanics shared by every machine-crash path,
// in the order recovery requires: jobtrackers first (the whole batch at
// once, so re-queued tasks cannot land back on a machine about to die
// with it), then the cluster failures themselves (killing consumers and
// destroying VMs, aborting in-flight migrations), then the filesystems
// with every lost node as one batch, so no doomed node is picked as a
// re-replication target.
func (in *Injector) crashPMs(pms []*cluster.PM) dfs.FailureReport {
	if len(pms) == 0 {
		return dfs.FailureReport{}
	}
	for _, jt := range in.env.JTs {
		jt.HandleMachineFailures(pms)
	}
	before := in.env.Cluster.VMs()
	affected := make([]cluster.Node, 0, len(pms))
	for _, pm := range pms {
		_ = pm.Fail()
		affected = append(affected, pm)
	}
	// Everything that lost its host — resident VMs plus any VM caught
	// mid-stop-and-copy migrating away from a dying machine.
	for _, vm := range before {
		if vm.Machine() == nil {
			affected = append(affected, vm)
		}
	}
	var report dfs.FailureReport
	for _, fs := range in.env.FSs {
		r := fs.HandleNodeFailures(affected)
		report.ReReplicated += r.ReReplicated
		report.Lost += r.Lost
	}
	return report
}

// PartitionRack isolates the named rack from the control plane — the
// machines keep running but heartbeats, DFS traffic and migration
// streams across the cut stop. The partition heals after d (never, when
// d <= 0); healing restores connectivity, lets lost trackers rejoin on
// their next responsive heartbeat, and re-replicates anything that
// degraded meanwhile. Returns the partition handle (nil for an unknown
// or empty rack).
func (in *Injector) PartitionRack(name string, d time.Duration) *cluster.Partition {
	members := in.env.Cluster.PMsInRack(name)
	if len(members) == 0 {
		return nil
	}
	return in.partition(name, members, d)
}

// PartitionNetwork isolates an arbitrary machine set, healing after d
// (never, when d <= 0).
func (in *Injector) PartitionNetwork(pms []*cluster.PM, d time.Duration) *cluster.Partition {
	if len(pms) == 0 {
		return nil
	}
	names := make([]string, 0, len(pms))
	for _, pm := range pms {
		names = append(names, pm.Name())
	}
	return in.partition(strings.Join(names, "+"), pms, d)
}

func (in *Injector) partition(target string, pms []*cluster.PM, d time.Duration) *cluster.Partition {
	in.record(NetPartition, target,
		trace.F("machines", float64(len(pms))), trace.F("heal_sec", d.Seconds()))
	p := in.env.Cluster.PartitionNetwork(pms)
	if d > 0 {
		in.env.Engine.After(d, func() { in.HealPartition(p) })
	}
	return p
}

// HealPartition heals a partition and repairs what degraded while it
// was active: every filesystem re-replicates toward its target factor,
// and isolated trackers rejoin via the heartbeat scanner. Healing an
// already-healed partition is a no-op.
func (in *Injector) HealPartition(p *cluster.Partition) {
	if p.Healed() {
		return
	}
	p.Heal()
	for _, fs := range in.env.FSs {
		fs.RepairUnderReplicated()
	}
}

// RepairPM powers a failed machine back on. Destroyed VMs stay gone, but
// native trackers on the machine become responsive again (the JobTracker
// health checker restores them once any blacklist hold-off expires) and
// their storage rejoins the DFS as an empty DataNode. Every filesystem
// then re-replicates toward target replication onto the recovered
// capacity. Returns the number of repair copies made.
func (in *Injector) RepairPM(pm *cluster.PM) int {
	if pm == nil || !pm.Failed() {
		return 0
	}
	pm.PowerOn()
	in.record(PMRepair, pm.Name())
	for _, jt := range in.env.JTs {
		jt.EachTracker(func(tr *mapred.TaskTracker) {
			if sp, ok := tr.Storage.(*cluster.PM); ok && sp == pm {
				jt.FS().AddDataNode(pm)
			}
		})
	}
	copies := 0
	for _, fs := range in.env.FSs {
		copies += fs.RepairUnderReplicated()
	}
	return copies
}

// CrashVM fails one VM (guest panic): its trackers are declared lost,
// the VM dies with its consumers, and the filesystems prune and repair
// its DataNode. A destroyed VM is a no-op.
func (in *Injector) CrashVM(vm *cluster.VM) dfs.FailureReport {
	if vm == nil || vm.Machine() == nil {
		return dfs.FailureReport{}
	}
	in.record(VMCrash, vm.Name())
	for _, jt := range in.env.JTs {
		jt.HandleNodeLost(vm)
	}
	_ = vm.Fail()
	var report dfs.FailureReport
	for _, fs := range in.env.FSs {
		r := fs.HandleNodeFailure(vm)
		report.ReReplicated += r.ReReplicated
		report.Lost += r.Lost
	}
	return report
}

// HangTracker wedges a TaskTracker daemon for the duration. The
// JobTracker's heartbeat timeout declares it lost and re-executes its
// work; when the hang clears, the tracker heartbeats again and rejoins
// after any blacklist hold-off.
func (in *Injector) HangTracker(tr *mapred.TaskTracker, d time.Duration) {
	if tr == nil || tr.Hung() {
		return
	}
	in.record(TrackerHang, tr.Compute.Name(), trace.F("duration_sec", d.Seconds()))
	tr.SetHung(true)
	in.env.Engine.After(d, func() { tr.SetHung(false) })
}

// SlowPM injects a straggler: the machine runs factor times slower for
// the duration, then recovers (unless a later injection changed the
// factor meanwhile).
func (in *Injector) SlowPM(pm *cluster.PM, factor float64, d time.Duration) {
	if pm == nil || pm.Failed() || factor <= 1 {
		return
	}
	in.record(Straggler, pm.Name(),
		trace.F("factor", factor), trace.F("duration_sec", d.Seconds()))
	pm.SetSlowdown(factor)
	in.env.Engine.After(d, func() {
		if pm.Slowdown() == factor {
			pm.SetSlowdown(1)
		}
	})
}

// loseReplica corrupts one block replica. With an rng the victim is a
// seeded uniform choice over every (block, replica) pair; without one
// (the declarative form) it is the first pair in file/block order.
func (in *Injector) loseReplica(rng *rand.Rand) {
	type victim struct {
		fs *dfs.FileSystem
		b  *dfs.Block
	}
	var pop []victim
	for _, fs := range in.env.FSs {
		for _, f := range fs.Files() {
			for _, b := range f.Blocks {
				pop = append(pop, victim{fs, b})
			}
		}
	}
	if len(pop) == 0 {
		return
	}
	idx := 0
	if rng != nil {
		idx = rng.Intn(len(pop))
	}
	idx = in.retarget(idx, len(pop), func(i int) bool { return len(pop[i].b.Replicas) > 0 })
	if idx < 0 {
		return
	}
	v := pop[idx]
	ridx := 0
	if rng != nil {
		ridx = rng.Intn(len(v.b.Replicas))
	}
	in.record(BlockLoss, v.b.ID)
	v.fs.CorruptReplica(v.b, v.b.Replicas[ridx])
}

func (in *Injector) livePMs() []*cluster.PM {
	var out []*cluster.PM
	for _, pm := range in.env.Cluster.PMs() {
		if !pm.Failed() {
			out = append(out, pm)
		}
	}
	return out
}

func (in *Injector) liveVMs() []*cluster.VM {
	var out []*cluster.VM
	for _, vm := range in.env.Cluster.VMs() {
		if vm.Machine() != nil {
			out = append(out, vm)
		}
	}
	return out
}

func (in *Injector) findPM(name string) *cluster.PM {
	for _, pm := range in.env.Cluster.PMs() {
		if pm.Name() == name {
			return pm
		}
	}
	return nil
}

func (in *Injector) findVM(name string) *cluster.VM {
	for _, vm := range in.env.Cluster.VMs() {
		if vm.Name() == name {
			return vm
		}
	}
	return nil
}

func (in *Injector) findTracker(name string) *mapred.TaskTracker {
	var found *mapred.TaskTracker
	for _, jt := range in.env.JTs {
		jt.EachTracker(func(tr *mapred.TaskTracker) {
			if found == nil && tr.Compute.Name() == name {
				found = tr
			}
		})
		if found != nil {
			return found
		}
	}
	return nil
}
