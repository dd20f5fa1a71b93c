package cluster

import "testing"

// BenchmarkPMUpdate measures one steady-state re-solve of a PM with two
// native consumers and two VMs of three consumers each: the work every
// consumer attach, detach, demand or cap change pays.
func BenchmarkPMUpdate(b *testing.B) {
	pm := solveRig(b, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm.update()
	}
}
