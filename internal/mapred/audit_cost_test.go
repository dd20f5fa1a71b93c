package mapred

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/resource"
)

// copyingPressure is trackerPressure as first written: it walks copies
// of the machine's native consumers, VMs and VM consumers. The in-place
// walk must visit consumers in the same order and so sum bit-identically.
func copyingPressure(tr *TaskTracker) float64 {
	pm := tr.Compute.Machine()
	if pm == nil {
		return math.Inf(1)
	}
	cap := pm.Capacity()
	var p float64
	add := func(c *cluster.Consumer) {
		best := 0.0
		for _, k := range resource.Kinds() {
			if cv := cap.Get(k); cv > 0 {
				if r := c.Demand.Get(k) / cv; r > best {
					best = r
				}
			}
		}
		p += best
	}
	for _, c := range pm.Consumers() {
		add(c)
	}
	for _, vm := range pm.VMs() {
		for _, c := range vm.Consumers() {
			add(c)
		}
	}
	return p
}

// scoreAllCandidates is assignCandidates as first written: it scores
// every eligible tracker and keeps the first eight, the chosen one
// replacing the tail when it comes later.
func scoreAllCandidates(jt *JobTracker, kind TaskKind, chosen *TaskTracker) []audit.Candidate {
	const maxCandidates = 8
	var out []audit.Candidate
	for _, tr := range jt.trackers {
		if tr != chosen && (tr.disabled || tr.lost || tr.FreeSlots(kind) <= 0) {
			continue
		}
		c := audit.Candidate{Name: tr.Compute.Name(), Score: copyingPressure(tr),
			Chosen: tr == chosen, Note: "machine pressure"}
		if len(out) == maxCandidates {
			if tr != chosen {
				continue
			}
			out[len(out)-1] = c
			continue
		}
		out = append(out, c)
	}
	return out
}

// busyVirtualJT returns a virtual-cluster JobTracker part-way through a
// job, so machines carry task consumers on several VMs.
func busyVirtualJT(t *testing.T, pms int) *JobTracker {
	engine := newEngineForTest()
	jt := newVirtualJT(t, engine, pms, 2)
	if _, err := jt.Submit(sortLike(2048), nil); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(20 * time.Second)
	if jt.RunningCount() == 0 {
		t.Fatal("no attempts running")
	}
	return jt
}

func TestTrackerPressureMatchesCopyingWalk(t *testing.T) {
	jt := busyVirtualJT(t, 6)
	loaded := 0
	for _, tr := range jt.trackers {
		got, want := trackerPressure(tr), copyingPressure(tr)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: pressure %v, copying walk %v", tr.Compute.Name(), got, want)
		}
		if got > 0 {
			loaded++
		}
	}
	if loaded == 0 {
		t.Fatal("no tracker carries load; the comparison is vacuous")
	}
}

func TestTrackerPressureDoesNotAllocate(t *testing.T) {
	jt := busyVirtualJT(t, 4)
	tr := jt.trackers[0]
	if allocs := testing.AllocsPerRun(1000, func() { trackerPressure(tr) }); allocs != 0 {
		t.Fatalf("trackerPressure: %v allocs/op, want 0", allocs)
	}
}

// TestAssignCandidatesMatchesScoringEveryTracker drives random slot,
// blacklist and loss states on a 40-tracker fleet and checks that
// scoring only the kept trackers yields the same candidate list.
func TestAssignCandidatesMatchesScoringEveryTracker(t *testing.T) {
	jt := busyVirtualJT(t, 20)
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 500; round++ {
		for _, tr := range jt.trackers {
			tr.mapRunning = rng.Intn(jt.cfg.MapSlots + 1)
			tr.redsRunning = rng.Intn(jt.cfg.ReduceSlots + 1)
			tr.disabled = rng.Intn(8) == 0
			tr.lost = rng.Intn(10) == 0
		}
		kind := MapTask
		if rng.Intn(2) == 0 {
			kind = ReduceTask
		}
		chosen := jt.trackers[rng.Intn(len(jt.trackers))]
		got, want := jt.assignCandidates(kind, chosen), scoreAllCandidates(jt, kind, chosen)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: candidates\n got %+v\nwant %+v", round, got, want)
		}
	}
}
