package core

import (
	"testing"
	"time"

	"repro/internal/workload"
)

// TestDRMObserveDoesNotAllocate pins the estimator lookup: keying by
// job name and task kind instead of a formatted string makes a sweep's
// observe pass allocation-free. Each estimator's bounded sample window
// regrows once per few hundred samples, which amortizes to zero.
func TestDRMObserveDoesNotAllocate(t *testing.T) {
	rig := virtualRig(t, 4)
	drm := NewDRM(rig.Engine, rig.JT, AllModes(), 5*time.Second)
	if _, err := rig.JT.Submit(workload.Sort().WithInputMB(2048), nil); err != nil {
		t.Fatal(err)
	}
	rig.Engine.RunUntil(30 * time.Second)
	attempts := rig.JT.RunningAttempts()
	if len(attempts) == 0 {
		t.Fatal("no attempts running")
	}
	for i := 0; i < 1000; i++ {
		drm.observe(attempts) // fill every estimator's sample window
	}
	if allocs := testing.AllocsPerRun(100, func() { drm.observe(attempts) }); allocs != 0 {
		t.Fatalf("observe over %d attempts: %v allocs/op, want 0", len(attempts), allocs)
	}
}
