package core

import "testing"

// BenchmarkDRMTick measures one steady-state DRM epoch over a 32-PM
// virtual cluster (64 task VMs) mid-way through a Sort job:
// re-balancing CPU, I/O and memory caps on every node, with auditing off.
func BenchmarkDRMTick(b *testing.B) {
	drm := drmTickRig(b, 32, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drm.tick()
	}
}
