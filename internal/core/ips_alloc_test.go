package core

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/perfstat"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// ipsTickRig returns an IPS over a virtual cluster part-way through a
// Sort job, watching a RUBiS and a TPC-W service that sit under their
// SLAs on VMs that also run tasks.
func ipsTickRig(tb testing.TB, pms int, sinks obs.Sinks) (*IPS, *testbed.Rig, []*workload.Service) {
	tb.Helper()
	rig, err := testbed.New(testbed.Options{
		PMs:          pms,
		VMsPerPM:     2,
		Seed:         11,
		MapredConfig: mapred.Config{SlotCaps: true},
		Obs:          sinks,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var svcs []*workload.Service
	for i, spec := range []workload.ServiceSpec{workload.RUBiS(), workload.TPCW()} {
		svc, err := workload.Deploy(spec, rig.VMs[i*len(rig.VMs)/2])
		if err != nil {
			tb.Fatal(err)
		}
		svc.SetClients(100)
		svcs = append(svcs, svc)
	}
	if _, err := rig.JT.Submit(workload.Sort().WithInputMB(float64(512*pms)), nil); err != nil {
		tb.Fatal(err)
	}
	rig.Engine.RunUntil(30 * time.Second)
	if rig.JT.RunningCount() == 0 {
		tb.Fatal("no attempts running")
	}
	ips := NewIPS(rig.Cluster, rig.JT, nil, &rig.Obs)
	for _, svc := range svcs {
		if svc.SLAViolated() {
			tb.Fatalf("%s violates its SLA at rest (%.0f ms)", svc.Spec().Name, svc.LatencyMs())
		}
		ips.Watch(svc)
	}
	return ips, rig, svcs
}

// TestIPSTickScansOnlyViolatingEpochs pins what a monitoring epoch
// walks: while every watched service is under its SLA the tick reads
// no running attempt and allocates nothing; an epoch in which one
// service violates walks the running attempts once, for the Arbiter's
// interferer list.
func TestIPSTickScansOnlyViolatingEpochs(t *testing.T) {
	ps := perfstat.New()
	ips, rig, svcs := ipsTickRig(t, 4, obs.Sinks{Perf: ps})
	before := ps.C
	for i := 0; i < 5; i++ {
		ips.tick(rig.Engine.Now())
	}
	if ps.C.JTAttemptsSorted != before.JTAttemptsSorted || ps.C.IPSAttemptsScanned != before.IPSAttemptsScanned {
		t.Errorf("healthy epochs walked attempts: jt.attempts_sorted +%d, ips.attempts_scanned +%d",
			ps.C.JTAttemptsSorted-before.JTAttemptsSorted, ps.C.IPSAttemptsScanned-before.IPSAttemptsScanned)
	}
	if allocs := testing.AllocsPerRun(100, func() { ips.tick(rig.Engine.Now()) }); allocs != 0 {
		t.Errorf("healthy tick: %v allocs/op, want 0", allocs)
	}

	svcs[0].SetClients(5000)
	if !svcs[0].SLAViolated() {
		t.Fatalf("%s under its SLA at 5000 clients", svcs[0].Spec().Name)
	}
	running := int64(rig.JT.RunningCount())
	before = ps.C
	ips.tick(rig.Engine.Now())
	if d := ps.C.IPSAttemptsScanned - before.IPSAttemptsScanned; d != running {
		t.Errorf("violating epoch: ips.attempts_scanned +%d, want +%d", d, running)
	}
	if d := ps.C.JTAttemptsSorted - before.JTAttemptsSorted; d != running {
		t.Errorf("violating epoch: jt.attempts_sorted +%d, want +%d", d, running)
	}
}

// TestIPSMaybeResumeZeroAlloc pins the resume pass of a monitoring
// epoch: while a paused VM and a blacklisted tracker wait out their
// hosts' backoff, the pass sorts them in reused scratch and allocates
// nothing.
func TestIPSMaybeResumeZeroAlloc(t *testing.T) {
	rig := virtualRig(t, 4)
	ips := NewIPS(rig.Cluster, rig.JT, nil, nil)
	vm := rig.VMs[0]
	if err := vm.Pause(); err != nil {
		t.Fatal(err)
	}
	ips.paused[vm] = "RUBiS"
	tr := rig.JT.Trackers()[len(rig.JT.Trackers())-1]
	tr.SetDisabled(true)
	ips.blacklisted[tr] = "RUBiS"
	hold := rig.Engine.Now() + time.Hour
	ips.backoff[vm.Machine()] = &blacklistBackoff{count: 1, until: hold}
	ips.backoff[tr.Compute.Machine()] = &blacklistBackoff{count: 1, until: hold}
	if allocs := testing.AllocsPerRun(100, ips.maybeResume); allocs != 0 {
		t.Fatalf("maybeResume: %v allocs/op, want 0", allocs)
	}
	if _, ok := ips.paused[vm]; !ok || vm.State() != cluster.VMPaused {
		t.Error("the paused VM resumed inside its backoff")
	}
	if _, ok := ips.blacklisted[tr]; !ok || !tr.Disabled() {
		t.Error("the blacklisted tracker rejoined inside its backoff")
	}
}
