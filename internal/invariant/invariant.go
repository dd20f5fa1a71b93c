// Package invariant is a runtime safety-invariant checker for the
// simulated stack. It hangs off the event hooks the subsystems expose
// (attempt launches and completions in mapred, migration commits in
// cluster, injections in fault) and asserts cross-layer properties that
// no single subsystem can see on its own:
//
//   - no task ever has two primary (or two speculative) attempts
//     running concurrently;
//   - no map is launched against a block whose replica set is empty;
//   - no reduce completes while a needed map output is unfetchable
//     (its node destroyed, failed, partitioned away, or its tracker
//     lost without the map being re-executed);
//   - no migration commits onto a failed or partition-unreachable
//     destination;
//   - no VM is ever hosted on a failed machine;
//   - after the last injection, re-replication restores the target
//     factor and no job livelocks while the fleet stays viable.
//
// A violation carries the simulated time and the most recent
// audit-trail record — the decision that caused it — so a chaos-search
// repro points straight at the broken code path. Like trace and audit,
// a nil *Checker accepts the whole API as a no-op, and a wired checker
// never perturbs the simulation beyond zero-delay sweep events: it
// reads state, it never mutates it.
package invariant

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/fault"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/sim"
)

// AuditRef is the slice of an audit.Record a violation keeps: enough to
// find the causing decision in the full trail, and byte-deterministic
// so chaos-search artifacts can be compared across runs.
type AuditRef struct {
	Seq       uint64 `json:"seq"`
	AtUs      int64  `json:"at_us"`
	Subsystem string `json:"subsystem"`
	Action    string `json:"action"`
	Subject   string `json:"subject"`
	Decision  string `json:"decision"`
	Reason    string `json:"reason,omitempty"`
}

// Violation is one observed invariant breach.
type Violation struct {
	// Name identifies the invariant, machine-readably.
	Name string `json:"name"`
	// AtUs is the simulated time of the breach, in microseconds.
	AtUs int64 `json:"at_us"`
	// Detail says what broke, with enough names to find it in a trace.
	Detail string `json:"detail"`
	// Audit is the most recent audit-trail record when the breach was
	// observed — the decision that caused it, when auditing is on.
	Audit *AuditRef `json:"audit,omitempty"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s@%dus: %s", v.Name, v.AtUs, v.Detail)
}

// Checker observes a running stack and records violations. The zero
// value from New is inert until Attach wires it to a built rig; every
// method is a no-op on a nil receiver.
type Checker struct {
	engine  *sim.Engine
	cluster *cluster.Cluster
	fss     []*dfs.FileSystem
	jts     []*mapred.JobTracker
	log     *audit.Log

	injections   int
	sweepPending bool
	violations   []Violation
	seen         map[string]bool
}

// New returns an unattached checker.
func New() *Checker {
	return &Checker{seen: make(map[string]bool)}
}

// Attach wires the checker into a built stack through its fault
// injector, whose environment names every layer: the checker registers
// itself as the invariant sink of the cluster, every jobtracker and the
// injector, keeps the references it needs for the end-of-run liveness
// checks, and reads the most recent decision from the environment's
// audit log. Attaching a nil checker is a no-op.
func (c *Checker) Attach(in *fault.Injector) {
	if c == nil {
		return
	}
	env := in.Env()
	c.engine, c.cluster, c.fss, c.jts = env.Engine, env.Cluster, env.FSs, env.JTs
	c.log = obs.Of(env.Obs).Audit
	if env.Cluster != nil {
		env.Cluster.SetInvariants(c)
	}
	for _, jt := range env.JTs {
		jt.SetInvariants(c)
	}
	in.SetInvariants(c)
}

// violate records one breach, deduplicating exact repeats (a broken
// recovery path trips the same invariant at every reduce completion;
// one record per distinct detail keeps artifacts readable).
func (c *Checker) violate(name, detail string) {
	key := name + "|" + detail
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	v := Violation{Name: name, Detail: detail}
	if c.engine != nil {
		v.AtUs = c.engine.Now().Microseconds()
	}
	if recs := c.log.Records(); len(recs) > 0 {
		r := recs[len(recs)-1]
		v.Audit = &AuditRef{
			Seq: r.Seq, AtUs: r.At.Microseconds(), Subsystem: r.Subsystem,
			Action: r.Action, Subject: r.Subject, Decision: r.Decision, Reason: r.Reason,
		}
	}
	c.violations = append(c.violations, v)
}

// AttemptStarted checks every launch: a task must never hold two
// primary attempts (re-execution racing a live original) nor two
// speculative backups, and a map must never be launched against a
// block with no replicas left. Implements mapred.InvariantSink.
func (c *Checker) AttemptStarted(jt *mapred.JobTracker, a *mapred.Attempt) {
	if c == nil || a == nil {
		return
	}
	t := a.Task
	running, backups := 0, 0
	for _, other := range t.Attempts() {
		if !other.Running() {
			continue
		}
		running++
		if other.Speculative {
			backups++
		}
	}
	if primaries := running - backups; primaries > 1 {
		c.violate("attempt-double-scheduled",
			fmt.Sprintf("task %s has %d primary attempts running concurrently", t.ID(), primaries))
	}
	if backups > 1 {
		c.violate("attempt-double-scheduled",
			fmt.Sprintf("task %s has %d speculative attempts running concurrently", t.ID(), backups))
	}
	if t.Kind == mapred.MapTask && t.Block != nil && len(t.Block.Replicas) == 0 {
		c.violate("map-reads-lost-block",
			fmt.Sprintf("map %s launched against block %s whose replica set is empty", t.ID(), t.Block.ID))
	}
}

// AttemptFinished checks reduce completions: every finished map the
// reduce shuffled from must still have fetchable output. The check runs
// at completion rather than launch because correlated-failure batches
// legitimately pass through windows where an output node is gone but
// its map's re-execution has not been queued yet — no simulated time
// passes inside the batch, so nothing can *complete* inside the window.
// A reduce that finishes while a needed output is unfetchable really
// did consume lost data. Implements mapred.InvariantSink.
func (c *Checker) AttemptFinished(jt *mapred.JobTracker, a *mapred.Attempt) {
	if c == nil || a == nil || a.Task.Kind != mapred.ReduceTask {
		return
	}
	for _, m := range a.Task.Job.Maps() {
		if m.State() != mapred.TaskDone {
			continue
		}
		ot := m.OutputTracker()
		if ot == nil {
			continue
		}
		// The predicate is shared with the JobTracker's reducer-side fetch
		// gate (TaskTracker.OutputUnfetchable), so the checker and the
		// recovery path agree on what "fetchable" means.
		if why := ot.OutputUnfetchable(); why != "" {
			c.violate("reduce-consumed-lost-map-output",
				fmt.Sprintf("reduce %s completed while map %s's output on %s is unfetchable (%s)",
					a.Task.ID(), m.ID(), ot.Compute.Name(), why))
		}
	}
}

// MigrationCommitted checks the commit point of every live migration:
// the destination must be alive and reachable from the source at the
// instant the VM attaches. Implements cluster.InvariantSink.
func (c *Checker) MigrationCommitted(vm *cluster.VM, from, to *cluster.PM) {
	if c == nil {
		return
	}
	if to == nil || to.Failed() {
		c.violate("migration-committed-to-dead-pm",
			fmt.Sprintf("VM %s committed its migration onto a failed machine", vm.Name()))
		return
	}
	if c.cluster != nil && !c.cluster.Reachable(from, to) {
		c.violate("migration-committed-across-partition",
			fmt.Sprintf("VM %s committed from %s to %s across an active network partition",
				vm.Name(), from.Name(), to.Name()))
	}
}

// Injected notes a fault injection and schedules a structural sweep for
// the instant the injection's propagation finishes (a zero-delay event:
// the injector calls this hook before it tears anything down, so
// sweeping inline would read the pre-fault state). Implements
// fault.InvariantSink.
func (c *Checker) Injected(kind, target string) {
	if c == nil {
		return
	}
	c.injections++
	if c.engine == nil || c.sweepPending {
		return
	}
	c.sweepPending = true
	c.engine.After(0, func() {
		c.sweepPending = false
		c.sweep()
	})
}

// sweep asserts the structural invariants that must hold between any
// two events; today that is "no VM is hosted on a failed machine"
// (fault propagation must destroy or migrate every resident VM).
func (c *Checker) sweep() {
	if c == nil || c.cluster == nil {
		return
	}
	for _, vm := range c.cluster.VMs() {
		if m := vm.Machine(); m != nil && m.Failed() {
			c.violate("vm-on-dead-pm",
				fmt.Sprintf("VM %s is hosted on failed machine %s", vm.Name(), m.Name()))
		}
	}
}

// Final runs the end-of-run liveness invariants and returns everything
// observed. Call it once the event queue has drained (or a RunUntil
// horizon well past the fault window was reached): with no partition
// still open, re-replication must have restored every block's target
// factor, and no job may sit unfinished while the fleet is viable — a
// fleet with no repairable tracker left parks by design, which is a
// clean stall, not a livelock.
func (c *Checker) Final() []Violation {
	if c == nil {
		return nil
	}
	c.sweep()
	partitioned := c.cluster != nil && c.cluster.Partitioned()
	if c.injections > 0 && !partitioned {
		for _, fs := range c.fss {
			if n := fs.UnderReplicated(); n > 0 {
				c.violate("rereplication-not-restored",
					fmt.Sprintf("%d block(s) still under target replication after the last injection with no partition active", n))
			}
		}
	}
	for _, jt := range c.jts {
		if !jt.FleetViable() || partitioned {
			continue
		}
		for _, job := range jt.Jobs() {
			c.violate("job-livelock",
				fmt.Sprintf("job %s-%d unfinished (phase %d) with a viable fleet and a drained event queue",
					job.Spec.Name, job.ID, job.State()))
		}
	}
	return c.Violations()
}

// Violations returns a copy of everything recorded so far.
func (c *Checker) Violations() []Violation {
	if c == nil || len(c.violations) == 0 {
		return nil
	}
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Ok reports whether no invariant has been violated.
func (c *Checker) Ok() bool { return c == nil || len(c.violations) == 0 }

// Err returns nil when Ok, else an error naming the first violation.
func (c *Checker) Err() error {
	if c.Ok() {
		return nil
	}
	v := c.violations[0]
	extra := ""
	if n := len(c.violations); n > 1 {
		extra = fmt.Sprintf(" (and %d more)", n-1)
	}
	return fmt.Errorf("invariant %s violated at %dus: %s%s", v.Name, v.AtUs, v.Detail, extra)
}
