package core

import (
	"testing"
	"time"

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
	ips := NewIPS(rig.Engine, rig.Cluster, rig.JT)
	ips.Watch(svc)
	st := ips.services[0]
	for i := 0; i < 1100; i++ {
		ips.observe(st) // fill every model's sample window
	}
	if allocs := testing.AllocsPerRun(100, func() { ips.observe(st) }); allocs != 0 {
		t.Fatalf("observe over %d attempts: %v allocs/op, want 0", rig.JT.RunningCount(), allocs)
	}
}
