package dfs

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func testFS(t *testing.T, nPMs, vmsPerPM int) (*sim.Engine, *cluster.Cluster, *FileSystem, []cluster.Node) {
	t.Helper()
	engine := sim.New()
	c := cluster.New(engine, cluster.Config{}, 42, nil)
	pms := c.AddPMs("pm", nPMs)
	fs := New(engine, 42, nil)
	var nodes []cluster.Node
	if vmsPerPM == 0 {
		for _, pm := range pms {
			nodes = append(nodes, pm)
		}
	} else {
		vms, err := c.SpreadVMs("vm", nPMs*vmsPerPM, pms, 1, 1024)
		if err != nil {
			t.Fatal(err)
		}
		for _, vm := range vms {
			nodes = append(nodes, vm)
		}
	}
	for _, n := range nodes {
		fs.AddDataNode(n)
	}
	return engine, c, fs, nodes
}

func TestCreateFileBlocksAndReplicas(t *testing.T) {
	_, _, fs, nodes := testFS(t, 4, 0)
	f, err := fs.CreateFile("/data/in", 200, nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	// 200 MB / 64 MB blocks = 4 blocks (64+64+64+8).
	if len(f.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(f.Blocks))
	}
	if got := f.Blocks[3].SizeMB; got != 8 {
		t.Errorf("last block = %v MB, want 8", got)
	}
	for i, b := range f.Blocks {
		if len(b.Replicas) != 2 {
			t.Errorf("block %d has %d replicas, want 2", i, len(b.Replicas))
		}
		if b.Replicas[0].Node() != nodes[0] {
			t.Errorf("block %d first replica not on writer", i)
		}
		if b.Replicas[0] == b.Replicas[1] {
			t.Errorf("block %d replicas on the same DataNode", i)
		}
	}
	if _, err := fs.CreateFile("/data/in", 10, nil); err == nil {
		t.Error("duplicate CreateFile succeeded")
	}
	if _, err := fs.CreateFile("/data/neg", -1, nil); err == nil {
		t.Error("negative-size CreateFile succeeded")
	}
}

func TestDeleteFreesSpace(t *testing.T) {
	_, _, fs, nodes := testFS(t, 4, 0)
	if _, err := fs.CreateFile("/f", 128, nodes[0]); err != nil {
		t.Fatal(err)
	}
	var used float64
	for _, d := range fs.DataNodes() {
		used += d.UsedMB()
	}
	if used != 256 { // 128 MB x 2 replicas
		t.Errorf("used = %v MB, want 256", used)
	}
	if err := fs.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	for _, d := range fs.DataNodes() {
		if d.UsedMB() != 0 || d.BlockCount() != 0 {
			t.Errorf("DataNode %s not empty after delete", d.Node().Name())
		}
	}
	if err := fs.Delete("/f"); err == nil {
		t.Error("double delete succeeded")
	}
}

func TestLocalityLevels(t *testing.T) {
	engine := sim.New()
	c := cluster.New(engine, cluster.Config{}, 1, nil)
	pm0 := c.AddPM("pm-0")
	pm1 := c.AddPM("pm-1")
	vmA, err := c.AddVM("vm-a", pm0, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	vmB, err := c.AddVM("vm-b", pm0, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	vmC, err := c.AddVM("vm-c", pm1, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	fs := New(engine, 1, nil)
	fs.replication = 1
	fs.AddDataNode(vmA)
	f, err := fs.CreateFile("/f", 10, vmA)
	if err != nil {
		t.Fatal(err)
	}
	b := f.Blocks[0]
	if got := fs.BlockLocality(b, vmA); got != NodeLocal {
		t.Errorf("same VM locality = %v, want node-local", got)
	}
	if got := fs.BlockLocality(b, vmB); got != HostLocal {
		t.Errorf("same host locality = %v, want host-local", got)
	}
	if got := fs.BlockLocality(b, vmC); got != Remote {
		t.Errorf("cross host locality = %v, want remote", got)
	}
}

func TestLocalityFractions(t *testing.T) {
	_, _, fs, nodes := testFS(t, 8, 0)
	if _, err := fs.CreateFile("/big", 64*32, nil); err != nil {
		t.Fatal(err)
	}
	nl, hl, rem, err := fs.LocalityFractions("/big", nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	if sum := nl + hl + rem; math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
	if nl == 0 {
		t.Error("no node-local blocks across 32 blocks x 2 replicas on 8 nodes is vanishingly unlikely")
	}
	if _, _, _, err := fs.LocalityFractions("/missing", nodes[0]); err == nil {
		t.Error("missing file succeeded")
	}
}

func TestReadCompletesAndReportsRate(t *testing.T) {
	engine, _, fs, nodes := testFS(t, 4, 0)
	if _, err := fs.CreateFile("/in", 600, nodes[0]); err != nil {
		t.Fatal(err)
	}
	var got TransferStats
	err := fs.Read("/in", nodes[0], ReadOptions{}, func(s TransferStats) { got = s })
	if err != nil {
		t.Fatal(err)
	}
	engine.Run()
	if got.SizeMB != 600 {
		t.Fatalf("read %v MB, want 600 (stats: %+v)", got.SizeMB, got)
	}
	// Mostly local read at default 60 MB/s: elapsed ≥ 10s; rate <= 60.
	if got.RateMBps <= 0 || got.RateMBps > 60.5 {
		t.Errorf("rate = %v MB/s, want (0, 60]", got.RateMBps)
	}
}

func TestVirtualReadSlowerThanNative(t *testing.T) {
	run := func(vmsPerPM int) float64 {
		engine, _, fs, nodes := testFS(t, 4, vmsPerPM)
		if _, err := fs.CreateFile("/in", 600, nodes[0]); err != nil {
			t.Fatal(err)
		}
		var rate float64
		err := fs.Read("/in", nodes[0], ReadOptions{RateMBps: 90}, func(s TransferStats) { rate = s.RateMBps })
		if err != nil {
			t.Fatal(err)
		}
		engine.Run()
		return rate
	}
	native := run(0)
	virtual := run(2)
	if virtual >= native {
		t.Errorf("virtual read rate %v not below native %v", virtual, native)
	}
}

func TestWriteSlowerThanRead(t *testing.T) {
	engine, _, fs, nodes := testFS(t, 4, 0)
	var w TransferStats
	if err := fs.Write("/out", 450, nodes[0], WriteOptions{}, func(s TransferStats) { w = s }); err != nil {
		t.Fatal(err)
	}
	engine.Run()
	if w.SizeMB != 450 {
		t.Fatalf("write incomplete: %+v", w)
	}
	var r TransferStats
	if err := fs.Read("/out", nodes[0], ReadOptions{}, func(s TransferStats) { r = s }); err != nil {
		t.Fatal(err)
	}
	engine.Run()
	if w.RateMBps >= r.RateMBps {
		t.Errorf("write rate %v not below read rate %v", w.RateMBps, r.RateMBps)
	}
}

func TestReadErrors(t *testing.T) {
	_, _, fs, nodes := testFS(t, 2, 0)
	if err := fs.Read("/nope", nodes[0], ReadOptions{}, nil); err == nil {
		t.Error("read of missing file succeeded")
	}
	if _, err := fs.CreateFile("/f", 10, nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Read("/f", nil, ReadOptions{}, nil); err == nil {
		t.Error("nil reader succeeded")
	}
	if err := fs.Write("/w", 10, nil, WriteOptions{}, nil); err == nil {
		t.Error("nil writer succeeded")
	}
}

func TestTestDFSIO(t *testing.T) {
	_, _, fs, nodes := testFS(t, 4, 0)
	wr, err := TestDFSIOWrite(fs, nodes, 256)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Files != 4 || wr.AvgIORateMBps <= 0 || wr.ThroughputMBps <= 0 {
		t.Errorf("write result: %+v", wr)
	}
	rd, err := TestDFSIORead(fs, nodes, 256)
	if err != nil {
		t.Fatal(err)
	}
	if rd.AvgIORateMBps <= wr.AvgIORateMBps {
		t.Errorf("read rate %v not above write rate %v", rd.AvgIORateMBps, wr.AvgIORateMBps)
	}
	// Throughput cannot exceed the average IO rate definitionally here
	// (sum-of-times denominator), and both are bounded by the stream rate.
	if rd.ThroughputMBps > rd.AvgIORateMBps+1e-9 {
		t.Errorf("throughput %v exceeds avg IO rate %v", rd.ThroughputMBps, rd.AvgIORateMBps)
	}
}

func TestAddDataNodeIdempotent(t *testing.T) {
	_, _, fs, nodes := testFS(t, 2, 0)
	before := len(fs.DataNodes())
	fs.AddDataNode(nodes[0])
	if got := len(fs.DataNodes()); got != before {
		t.Errorf("duplicate AddDataNode grew the set to %d", got)
	}
}

// Property: replica placement never exceeds the DataNode count, never
// duplicates a DataNode within a block, and block sizes sum to the file
// size.
func TestPlacementInvariants(t *testing.T) {
	f := func(sizeRaw uint16, nNodes uint8) bool {
		size := float64(sizeRaw%4096) + 1
		n := int(nNodes%12) + 1
		engine := sim.New()
		c := cluster.New(engine, cluster.Config{}, int64(nNodes), nil)
		pms := c.AddPMs("pm", n)
		fs := New(engine, int64(sizeRaw), nil)
		for _, pm := range pms {
			fs.AddDataNode(pm)
		}
		file, err := fs.CreateFile("/f", size, pms[0])
		if err != nil {
			return false
		}
		var total float64
		for _, b := range file.Blocks {
			total += b.SizeMB
			if len(b.Replicas) > n || len(b.Replicas) == 0 {
				return false
			}
			seen := make(map[*DataNode]struct{})
			for _, r := range b.Replicas {
				if _, dup := seen[r]; dup {
					return false
				}
				seen[r] = struct{}{}
			}
		}
		return math.Abs(total-size) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReplicasPreferDistinctMachines(t *testing.T) {
	// 4 PMs x 2 VMs: with 2-way replication every block must span two
	// physical machines, so one server failure never loses data.
	_, _, fs, _ := testFS(t, 4, 2)
	f, err := fs.CreateFile("/diverse", 64*20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range f.Blocks {
		if len(b.Replicas) != 2 {
			t.Fatalf("block %d has %d replicas", i, len(b.Replicas))
		}
		if b.Replicas[0].Node().Machine() == b.Replicas[1].Node().Machine() {
			t.Errorf("block %d replicas share machine %s", i, b.Replicas[0].Node().Machine().Name())
		}
	}
}

func TestHandleNodeFailuresBatch(t *testing.T) {
	engine, c, fs, nodes := testFS(t, 6, 2)
	_ = engine
	if _, err := fs.CreateFile("/f", 64*30, nil); err != nil {
		t.Fatal(err)
	}
	// Fail one machine's two VMs as a batch: nothing may be lost, and
	// re-replication must not target the dead nodes.
	pm := c.PMs()[0]
	var affected []cluster.Node
	for _, n := range nodes {
		if n.Machine() == pm {
			affected = append(affected, n)
		}
	}
	if len(affected) != 2 {
		t.Fatalf("expected 2 nodes on %s, got %d", pm.Name(), len(affected))
	}
	report := fs.HandleNodeFailures(affected)
	if report.Lost != 0 {
		t.Errorf("lost %d blocks despite machine-diverse replication", report.Lost)
	}
	if report.ReReplicated == 0 {
		t.Error("no re-replication after losing two DataNodes")
	}
	for _, d := range fs.DataNodes() {
		if d.Node().Machine() == pm {
			t.Error("dead DataNode still registered")
		}
	}
	f, _ := fs.File("/f")
	for i, b := range f.Blocks {
		for _, r := range b.Replicas {
			if r.Node().Machine() == pm {
				t.Errorf("block %d still has a replica on the failed machine", i)
			}
		}
	}
	// Unknown node: a no-op.
	if rep := fs.HandleNodeFailure(nodes[3]); rep.Lost != 0 {
		t.Errorf("second failure lost data: %+v", rep)
	}
}

func TestTotalReplicaLossReported(t *testing.T) {
	// Replication 1: failing the only holder loses the block.
	engine := sim.New()
	c := cluster.New(engine, cluster.Config{}, 1, nil)
	pms := c.AddPMs("pm", 2)
	fs := New(engine, 1, nil)
	fs.replication = 1
	for _, pm := range pms {
		fs.AddDataNode(pm)
	}
	if _, err := fs.CreateFile("/single", 64, pms[0]); err != nil {
		t.Fatal(err)
	}
	report := fs.HandleNodeFailure(pms[0])
	if report.Lost != 1 {
		t.Errorf("Lost = %d, want 1", report.Lost)
	}
}

func TestReReplicationAndConcurrentReadSurviveNodeFailure(t *testing.T) {
	// S4: a node holding replicas dies mid-read. The in-flight read must
	// finish from the surviving replicas, and repair must bring every
	// block back to target replication without using the dead node.
	engine, c, fs, nodes := testFS(t, 6, 0)
	if _, err := fs.CreateFile("/live", 64*10, nodes[0]); err != nil {
		t.Fatal(err)
	}
	var stats *TransferStats
	if err := fs.Read("/live", nodes[5], ReadOptions{}, func(s TransferStats) { stats = &s }); err != nil {
		t.Fatal(err)
	}
	failed := c.PMs()[0] // the writer: first replica of every block
	engine.AfterSeconds(2, func() {
		_ = failed.Fail()
		report := fs.HandleNodeFailure(failed)
		if report.Lost != 0 {
			t.Errorf("lost %d blocks despite a surviving replica each", report.Lost)
		}
		if report.ReReplicated == 0 {
			t.Error("no re-replication after losing the writer's DataNode")
		}
	})
	engine.Run()
	if stats == nil {
		t.Fatal("concurrent read never completed after the holder failure")
	}
	if got := fs.UnderReplicated(); got != 0 {
		t.Errorf("%d blocks still under-replicated after repair", got)
	}
	f, _ := fs.File("/live")
	for i, b := range f.Blocks {
		if len(b.Replicas) != fs.TargetReplication() {
			t.Errorf("block %d has %d replicas, want %d", i, len(b.Replicas), fs.TargetReplication())
		}
		for _, r := range b.Replicas {
			if r.Node().Machine() == failed {
				t.Errorf("block %d repaired onto the failed machine", i)
			}
		}
	}
}

func TestReadFailsCleanlyWhenAllReplicasGone(t *testing.T) {
	engine := sim.New()
	c := cluster.New(engine, cluster.Config{}, 9, nil)
	pms := c.AddPMs("pm", 3)
	fs := New(engine, 9, nil)
	fs.replication = 1
	for _, pm := range pms {
		fs.AddDataNode(pm)
	}
	if _, err := fs.CreateFile("/fragile", 64, pms[0]); err != nil {
		t.Fatal(err)
	}
	if report := fs.HandleNodeFailure(pms[0]); report.Lost != 1 {
		t.Fatalf("Lost = %d, want 1", report.Lost)
	}
	if err := fs.Read("/fragile", pms[1], ReadOptions{}, nil); err == nil {
		t.Error("reading a file with a fully-lost block succeeded")
	}
	if got := fs.LostBlocks(); got != 1 {
		t.Errorf("LostBlocks = %d, want 1", got)
	}
}
