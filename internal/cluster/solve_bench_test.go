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

// BenchmarkDRMCapReadBack measures the access pattern of the Phase II
// DRM's balanceRate on a VM host: walking each of two VMs' members, it
// caps one and reads the next one's allocation, so every read follows a
// binding cap on the same machine. Each read re-solves only the capped
// member's VM.
func BenchmarkDRMCapReadBack(b *testing.B) {
	pm := solveRig(b, 3)
	engine := pm.cluster.engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := 0.4 + 0.2*float64(i%2)
		for _, vm := range pm.vms {
			for k, c := range vm.consumers {
				c.SetCap(c.Demand.Scale(f))
				vm.consumers[(k+1)%len(vm.consumers)].Alloc()
			}
		}
		engine.RunUntil(engine.Now())
	}
}
