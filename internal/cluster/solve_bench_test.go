package cluster

import "testing"

// BenchmarkPMUpdate measures one steady-state re-solve of a PM with two
// native consumers and two VMs of three consumers each, flushed: the
// work a consumer attach, detach, demand or cap change pays when no
// other change to the machine follows at the same instant.
func BenchmarkPMUpdate(b *testing.B) {
	pm := solveRig(b, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		updateAndFlush(pm)
	}
}

// BenchmarkSetCapBurst measures what the Phase II DRM pays when it caps
// k consumers of one PM at one instant: k binding cap changes, then the
// engine's flush. The re-solve is deferred to the flush, so the burst
// costs k settles and one solve, not k solves.
func BenchmarkSetCapBurst(b *testing.B) {
	pm := solveRig(b, 3)
	burst := capBurst(pm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst(i)
	}
}
