package core

import (
	"testing"

	"repro/internal/obs"
)

// BenchmarkIPSTick measures one steady-state IPS epoch over a 32-PM
// virtual cluster (64 task VMs) mid-way through a Sort job: two watched
// services under their SLAs, with every sink off.
func BenchmarkIPSTick(b *testing.B) {
	ips, rig, _ := ipsTickRig(b, 32, obs.Sinks{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ips.tick(rig.Engine.Now())
	}
}
