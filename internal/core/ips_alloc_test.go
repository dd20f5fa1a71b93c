package core

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// TestIPSObserveZeroAlloc pins a monitoring epoch's observe pass: the
// running attempts are walked in place, the service's bottleneck reads
// its VM's consumers without copying them, and each model's full sample
// window slides in place, so a steady epoch allocates nothing.
func TestIPSObserveZeroAlloc(t *testing.T) {
	rig := virtualRig(t, 4)
	svc, err := workload.Deploy(workload.RUBiS(), rig.VMs[0])
	if err != nil {
		t.Fatal(err)
	}
	svc.SetClients(500)
	if _, err := rig.JT.Submit(workload.Sort().WithInputMB(2048), nil); err != nil {
		t.Fatal(err)
	}
	rig.Engine.RunUntil(30 * time.Second)
	if rig.JT.RunningCount() == 0 {
		t.Fatal("no attempts running")
	}
	ips := NewIPS(rig.Cluster, rig.JT, nil, nil)
	ips.Watch(svc)
	st := ips.services[0]
	for i := 0; i < 1100; i++ {
		ips.observe(st) // fill every model's sample window
	}
	if allocs := testing.AllocsPerRun(100, func() { ips.observe(st) }); allocs != 0 {
		t.Fatalf("observe over %d attempts: %v allocs/op, want 0", rig.JT.RunningCount(), allocs)
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
