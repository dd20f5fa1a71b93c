// External test package: in-package tests could not import testbed
// (testbed imports invariant), and building rigs is the only honest way
// to exercise the checker against real subsystem state.
package invariant_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The whole API must be a no-op on a nil receiver, like trace and audit.
func TestNilCheckerNoOps(t *testing.T) {
	var c *invariant.Checker
	c.Attach(nil)
	c.AttemptStarted(nil, nil)
	c.AttemptFinished(nil, nil)
	c.MigrationCommitted(nil, nil, nil)
	c.Injected("pm-crash", "pm-0")
	if vs := c.Final(); vs != nil {
		t.Fatalf("nil checker produced violations: %v", vs)
	}
	if !c.Ok() || c.Err() != nil {
		t.Fatal("nil checker must report Ok")
	}
}

// A healthy stack under correlated faults — a rack crash with repair and
// a healing partition — must come out violation-free: recovery works, so
// the checker must not cry wolf.
func TestHealthyFaultRunClean(t *testing.T) {
	inv := invariant.New()
	rig, err := testbed.New(testbed.Options{
		PMs: 4, VMsPerPM: 2, Racks: 2, PowerDomains: 2, Seed: 5,
		Obs:        obs.Sinks{Audit: audit.New(0)},
		Invariants: inv,
		Faults: &fault.Options{
			Seed: 9,
			Schedule: []fault.ScheduledFault{
				{At: 45 * time.Second, Kind: fault.RackCrash, Target: "rack-1"},
				{At: 100 * time.Second, Kind: fault.NetPartition, Target: "rack-0", Duration: 60 * time.Second},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Repair the crashed rack so re-replication has somewhere to land and
	// the fleet stays viable for the liveness checks.
	rig.Engine.After(4*time.Minute, func() {
		for _, pm := range rig.Cluster.PMsInRack("rack-1") {
			pm.PowerOn()
		}
	})
	if _, err := rig.JT.Submit(workload.Sort().WithInputMB(256), nil); err != nil {
		t.Fatal(err)
	}
	rig.Engine.RunUntil(30 * time.Minute)
	if vs := inv.Final(); len(vs) > 0 {
		t.Fatalf("healthy run violated invariants: %v", vs)
	}
	if err := inv.Err(); err != nil {
		t.Fatal(err)
	}
}

// With map re-execution disabled behind the test hook, crashing a VM that
// holds finished map output during the reduce phase must trip
// reduce-consumed-lost-map-output, and the violation must carry the
// audit record that caused it.
func TestBrokenRecoveryFlagged(t *testing.T) {
	inv := invariant.New()
	rig, err := testbed.New(testbed.Options{
		PMs: 4, VMsPerPM: 2, Seed: 3,
		MapredConfig: mapred.Config{DisableMapReexecution: true},
		Obs:          obs.Sinks{Audit: audit.New(0)},
		Invariants:   inv,
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := rig.JT.Submit(workload.Sort().WithInputMB(512), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Step until the reduce phase, then kill a VM holding map output.
	for at := time.Second; at < 30*time.Minute && job.State() != mapred.JobReducePhase; at += time.Second {
		rig.Engine.RunUntil(at)
	}
	if job.State() != mapred.JobReducePhase {
		t.Fatal("job never reached the reduce phase")
	}
	killed := false
	for _, m := range job.Maps() {
		ot := m.OutputTracker()
		if m.State() != mapred.TaskDone || ot == nil {
			continue
		}
		if vm, ok := ot.Compute.(*cluster.VM); ok {
			rig.Faults.CrashVM(vm)
			killed = true
			break
		}
	}
	if !killed {
		t.Fatal("no finished map output found to destroy")
	}
	rig.Engine.RunUntil(time.Hour)
	vs := inv.Final()
	found := false
	for _, v := range vs {
		if v.Name == "reduce-consumed-lost-map-output" {
			found = true
			if v.Audit == nil {
				t.Error("violation lacks its causing audit record")
			}
			if !strings.Contains(v.Detail, "map") {
				t.Errorf("detail does not name the map: %q", v.Detail)
			}
		}
	}
	if !found {
		t.Fatalf("broken recovery not flagged; violations: %v", vs)
	}
	if inv.Err() == nil {
		t.Fatal("Err must be non-nil after a violation")
	}
}

// A partition that opens mid-shuffle, before the heartbeat detector can
// notice, must not let reduces complete against unreachable map output:
// the reducer-side fetch gate discards the completion, re-executes the
// stranded maps, and the job still finishes clean once the partition
// heals. This is the minimized schedule the chaos search found against
// the pre-gate code (net-partition rack-1 during the Sort shuffle).
func TestPartitionDuringShuffleFetchGate(t *testing.T) {
	inv := invariant.New()
	reg := trace.NewRegistry()
	rig, err := testbed.New(testbed.Options{
		PMs: 6, VMsPerPM: 2, Racks: 3, PowerDomains: 2, Seed: 5,
		Obs:        obs.Sinks{Audit: audit.New(0), Metrics: reg},
		Invariants: inv,
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := rig.JT.Submit(workload.Sort().WithInputMB(512), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Step to the reduce phase, then cut off a rack that holds finished
	// map output while its tracker still looks healthy to the JT.
	for at := time.Second; at < 30*time.Minute && job.State() != mapred.JobReducePhase; at += time.Second {
		rig.Engine.RunUntil(at)
	}
	if job.State() != mapred.JobReducePhase {
		t.Fatal("job never reached the reduce phase")
	}
	var victim string
	for _, m := range job.Maps() {
		if ot := m.OutputTracker(); m.State() == mapred.TaskDone && ot != nil {
			if r := ot.Compute.Machine().Rack(); r != "" {
				victim = r
				break
			}
		}
	}
	if victim == "" {
		t.Fatal("no finished map output on a racked machine")
	}
	p := rig.Cluster.PartitionNetwork(rig.Cluster.PMsInRack(victim))
	rig.Engine.After(111*time.Second, p.Heal)
	rig.Engine.RunUntil(time.Hour)
	if !job.Done() {
		t.Fatal("job incomplete after the partition healed")
	}
	if got := reg.Snapshot().Counters["mapred.shuffle.fetch_failures"]; got == 0 {
		t.Error("fetch gate never fired; the partition window went unnoticed")
	}
	if vs := inv.Final(); len(vs) > 0 {
		t.Fatalf("fetch gate failed to protect the shuffle: %v", vs)
	}
}

// The migration-commit checks fire on dead and partition-unreachable
// destinations, and exact repeats deduplicate.
func TestMigrationCommitChecks(t *testing.T) {
	engine := sim.New()
	cl := cluster.New(engine, cluster.Config{}, 1, nil)
	pms := cl.AddPMs("pm", 3)
	vm, err := cl.AddVM("vm-0", pms[0], 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	inv := invariant.New()
	inv.Attach(fault.NewInjector(fault.Env{Engine: engine, Cluster: cl}, fault.Options{}))

	inv.MigrationCommitted(vm, pms[0], pms[1])
	if !inv.Ok() {
		t.Fatalf("live reachable destination flagged: %v", inv.Violations())
	}
	if err := pms[1].Fail(); err != nil {
		t.Fatal(err)
	}
	inv.MigrationCommitted(vm, pms[0], pms[1])
	inv.MigrationCommitted(vm, pms[0], pms[1]) // exact repeat must dedup
	if vs := inv.Violations(); len(vs) != 1 || vs[0].Name != "migration-committed-to-dead-pm" {
		t.Fatalf("want one migration-committed-to-dead-pm, got %v", vs)
	}
	p := cl.PartitionNetwork([]*cluster.PM{pms[2]})
	inv.MigrationCommitted(vm, pms[0], pms[2])
	p.Heal()
	vs := inv.Violations()
	if len(vs) != 2 || vs[1].Name != "migration-committed-across-partition" {
		t.Fatalf("want migration-committed-across-partition second, got %v", vs)
	}
}
