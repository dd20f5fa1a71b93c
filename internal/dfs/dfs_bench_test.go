package dfs

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// benchFleet registers 15,000 DataNodes — 5,000 native PMs plus 5,000
// hosts of two VMs, the scale-up point's fleet — striped over 40 racks.
func benchFleet(b *testing.B) (*FileSystem, []cluster.Node) {
	b.Helper()
	engine := sim.New()
	c := cluster.New(engine, cluster.Config{}, 1, nil)
	native := c.AddPMs("pm", 5000)
	hosts := c.AddPMs("host", 5000)
	cluster.StripeTopology(append(native, hosts...), 40, 0)
	fs := New(engine, 1, nil)
	var nodes []cluster.Node
	for _, pm := range native {
		nodes = append(nodes, pm)
	}
	vms, err := c.SpreadVMs("vm", 2*len(hosts), hosts, 1, 1024)
	if err != nil {
		b.Fatal(err)
	}
	for _, vm := range vms {
		nodes = append(nodes, vm)
	}
	for _, n := range nodes {
		fs.AddDataNode(n)
	}
	fs.spansRacks() // build the topology cache outside the timed loop
	return fs, nodes
}

// BenchmarkPlaceReplicas measures one rack-aware block placement over a
// 15,000-DataNode fleet.
func BenchmarkPlaceReplicas(b *testing.B) {
	fs, nodes := benchFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.placeReplicas(nodes[i%len(nodes)])
	}
}

// BenchmarkOffHostFraction measures the per-launch replication-traffic
// query over a 15,000-DataNode fleet.
func BenchmarkOffHostFraction(b *testing.B) {
	fs, nodes := benchFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += fs.OffHostFraction(nodes[i%len(nodes)])
	}
	_ = sink
}
