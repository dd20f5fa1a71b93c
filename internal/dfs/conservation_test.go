package dfs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestReplicaAccountingConserved runs seeded scripts of namespace
// operations on an 8-node cluster and, after every step, checks each
// live DataNode's books against the namespace: BlockCount is the number
// of live blocks listing it as a replica and UsedMB the sum of their
// sizes. A DataNode keeps only those two numbers, so this is the check
// that each add to or removal from a Replicas list moved them too.
func TestReplicaAccountingConserved(t *testing.T) {
	ran := map[string]int{}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			_, _, fs, nodes := testFS(t, 8, 0)
			rng := rand.New(rand.NewSource(seed))
			var failed []cluster.Node
			nextFile := 0
			for step := 0; step < 150; step++ {
				op := conservationStep(t, fs, rng, nodes, &failed, &nextFile)
				checkReplicaBooks(t, fs, fmt.Sprintf("step %d (%s)", step, op))
				if !strings.Contains(op, "(") {
					ran[strings.Fields(op)[0]]++
				}
			}
		})
	}
	for _, op := range []string{"create", "delete", "corrupt", "fail", "rejoin", "restore"} {
		if ran[op] == 0 {
			t.Errorf("no script ran %q", op)
		}
	}
	t.Logf("operations run: %v", ran)
}

// conservationStep applies one random operation and names it.
func conservationStep(t *testing.T, fs *FileSystem, rng *rand.Rand, nodes []cluster.Node, failed *[]cluster.Node, nextFile *int) string {
	t.Helper()
	files := fs.Files()
	switch r := rng.Intn(10); {
	case r < 3 || len(files) == 0:
		var preferred cluster.Node
		if rng.Intn(2) == 0 {
			preferred = nodes[rng.Intn(len(nodes))]
		}
		name := fmt.Sprintf("/f%d", *nextFile)
		*nextFile++
		if _, err := fs.CreateFile(name, 1+rng.Float64()*300, preferred); err != nil && len(fs.datanodes) > 0 {
			t.Fatal(err)
		}
		return "create " + name
	case r < 4:
		f := files[rng.Intn(len(files))]
		if err := fs.Delete(f.Name); err != nil {
			t.Fatal(err)
		}
		return "delete " + f.Name
	case r < 6:
		f := files[rng.Intn(len(files))]
		b := f.Blocks[rng.Intn(len(f.Blocks))]
		if len(b.Replicas) == 0 {
			return "corrupt (block already lost)"
		}
		fs.CorruptReplica(b, b.Replicas[rng.Intn(len(b.Replicas))])
		return "corrupt " + b.ID
	case r < 7:
		// Fail one or two live nodes as one batch, keeping at least one.
		live := liveNodes(fs, nodes)
		k := min(1+rng.Intn(2), len(live)-1)
		if k <= 0 {
			return "fail (no spare node)"
		}
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		fs.HandleNodeFailures(live[:k])
		*failed = append(*failed, live[:k]...)
		return fmt.Sprintf("fail %d nodes", k)
	case r < 8:
		// A repaired node rejoins empty; the namespace converges onto it.
		if len(*failed) == 0 {
			return "rejoin (none failed)"
		}
		i := rng.Intn(len(*failed))
		fs.AddDataNode((*failed)[i])
		*failed = append((*failed)[:i], (*failed)[i+1:]...)
		fs.RepairUnderReplicated()
		return "rejoin and repair"
	default:
		for _, f := range files {
			for _, b := range f.Blocks {
				if len(b.Replicas) == 0 {
					fs.RestoreBlock(b)
					return "restore " + b.ID
				}
			}
		}
		return "restore (nothing lost)"
	}
}

// liveNodes lists the nodes that currently back a DataNode.
func liveNodes(fs *FileSystem, nodes []cluster.Node) []cluster.Node {
	var out []cluster.Node
	for _, n := range nodes {
		if _, ok := fs.byNode[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// checkReplicaBooks recounts every live DataNode's replicas from the
// namespace and compares them with its own count and usage.
func checkReplicaBooks(t *testing.T, fs *FileSystem, when string) {
	t.Helper()
	count := map[*DataNode]int{}
	used := map[*DataNode]float64{}
	for _, f := range fs.Files() {
		for _, b := range f.Blocks {
			for _, d := range b.Replicas {
				count[d]++
				used[d] += b.SizeMB
			}
		}
	}
	for _, d := range fs.DataNodes() {
		if got, want := d.BlockCount(), count[d]; got != want {
			t.Fatalf("%s: %s BlockCount = %d, namespace lists it on %d blocks", when, d.Node().Name(), got, want)
		}
		if got, want := d.UsedMB(), used[d]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: %s UsedMB = %v, namespace sums to %v", when, d.Node().Name(), got, want)
		}
	}
}
