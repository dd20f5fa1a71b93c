package mapred

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// The index layer exists to make steady-state scheduling cheap at
// datacenter scale, so its maintenance operations must not allocate
// once the backing slices have grown to the fleet's working size —
// otherwise a 10k-PM run spends its time in the garbage collector
// instead of the event loop. Growth allocations (first insert into a
// fresh set, a new node bucket) are expected and excluded by
// prewarming before measuring.

// TestFreeSetMaintenanceZeroAlloc measures the slot-churn hot path:
// trackers leaving and re-entering the free-slot sets as their map and
// reduce slots fill and drain. The fleet spans several blocks, so the
// churn crosses block splits and merges, and the last case drains both
// sets completely and refills them — the pattern of a small fleet
// saturating and idling between waves.
func TestFreeSetMaintenanceZeroAlloc(t *testing.T) {
	_, jt := rig(t, 3*freeBlockMax+17, Config{}, nil)
	trackers := jt.Trackers()
	setFull := func(tr *TaskTracker, full bool) {
		tr.mapRunning, tr.redsRunning = 0, 0
		if full {
			tr.mapRunning, tr.redsRunning = jt.cfg.MapSlots, jt.cfg.ReduceSlots
		}
		jt.syncFree(tr)
	}
	cases := []struct {
		name  string
		churn func()
	}{
		{"one tracker", func() {
			tr := trackers[len(trackers)/2]
			setFull(tr, true)  // leaves both sets
			setFull(tr, false) // re-enters both sets
		}},
		{"block edges", func() {
			for _, i := range []int{0, freeBlockMax - 1, freeBlockMax, len(trackers) - 1} {
				setFull(trackers[i], true)
			}
			for _, i := range []int{freeBlockMax, 0, len(trackers) - 1, freeBlockMax - 1} {
				setFull(trackers[i], false)
			}
		}},
		{"drain and refill", func() {
			for _, tr := range trackers {
				setFull(tr, true)
			}
			if jt.freeMaps.n != 0 || jt.freeReds.n != 0 {
				t.Fatal("sets not drained")
			}
			for _, tr := range trackers {
				setFull(tr, false)
			}
		}},
	}
	for _, tc := range cases {
		tc.churn() // prewarm: grows the block list and the spare pool once
		if allocs := testing.AllocsPerRun(100, tc.churn); allocs != 0 {
			t.Errorf("%s: free-set churn allocates %.1f times per cycle, want 0", tc.name, allocs)
		}
	}
}

// TestRunningIndexMaintenanceZeroAlloc measures the attempt-launch and
// -release hot path: inserting into and removing from the name-sorted
// running list and its per-node bucket.
func TestRunningIndexMaintenanceZeroAlloc(t *testing.T) {
	_, jt := rig(t, 16, Config{}, nil)
	trackers := jt.Trackers()
	attempts := make([]*Attempt, len(trackers))
	for i, tr := range trackers {
		attempts[i] = &Attempt{
			Tracker:  tr,
			consumer: &cluster.Consumer{Name: fmt.Sprintf("alloc-test-%02d", i)},
		}
	}
	churn := func() {
		for _, a := range attempts {
			jt.runningInsert(a)
		}
		for _, a := range attempts {
			jt.runningRemove(a)
		}
	}
	churn() // prewarm: creates the node buckets and grows the slices once
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Errorf("running-index churn allocates %.1f times per launch/release sweep, want 0", allocs)
	}
}

// TestPressureRefreshKeepsSetsOrdered drives the dirty-PM refresh path
// and verifies both free-slot sets stay sorted under their comparator —
// the invariant the binary searches in freeSet.insert/remove rely on.
func TestPressureRefreshKeepsSetsOrdered(t *testing.T) {
	_, jt := rig(t, 16, Config{CapacityAware: true}, nil)
	for _, tr := range jt.Trackers() {
		jt.refreshPressure(tr)
	}
	for _, set := range [][]*TaskTracker{jt.freeMaps.appendTo(nil), jt.freeReds.appendTo(nil)} {
		for i := 1; i < len(set); i++ {
			if jt.freeLess(set[i], set[i-1]) {
				t.Fatalf("free set out of order at %d: %s before %s",
					i, set[i-1].Compute.Name(), set[i].Compute.Name())
			}
		}
	}
}
