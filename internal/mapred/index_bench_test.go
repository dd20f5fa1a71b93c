package mapred

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
)

// BenchmarkFreeSetChurn measures the free-slot index maintenance one
// launch, release and pressure refresh pay on a 15,000-tracker fleet
// (the scale-up point): the tracker leaves both free sets as its slots
// fill, re-enters them as they drain, and is re-keyed under a refreshed
// machine pressure.
func BenchmarkFreeSetChurn(b *testing.B) {
	_, jt := rig(b, 15000, Config{CapacityAware: true}, nil)
	trackers := jt.Trackers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trackers[(i*7919)%len(trackers)]
		tr.mapRunning, tr.redsRunning = jt.cfg.MapSlots, jt.cfg.ReduceSlots
		jt.syncFree(tr)
		tr.mapRunning, tr.redsRunning = 0, 0
		jt.syncFree(tr)
		jt.refreshPressure(tr)
	}
}

// BenchmarkFreeSetChurnDistinct is the free sets' worst case: 15,000
// trackers, each at its own pressure, so every tracker is a level of its
// own. Each iteration re-keys one tracker to a fresh pressure the way a
// refresh would: it leaves both sets under its old key and rejoins them
// under the new one.
func BenchmarkFreeSetChurnDistinct(b *testing.B) {
	_, jt := rig(b, 15000, Config{CapacityAware: true}, nil)
	trackers := jt.Trackers()
	rng := rand.New(rand.NewSource(9))
	rekey := func(tr *TaskTracker, pressure float64) {
		tr.mapRunning, tr.redsRunning = jt.cfg.MapSlots, jt.cfg.ReduceSlots
		jt.syncFree(tr)
		tr.pressure = pressure
		tr.mapRunning, tr.redsRunning = 0, 0
		jt.syncFree(tr)
	}
	for _, tr := range trackers {
		rekey(tr, rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rekey(trackers[(i*7919)%len(trackers)], rng.Float64())
	}
}

// BenchmarkRunningChurn measures the running-attempt index maintenance
// of one attempt ending and one launching against 5,000 running
// attempts on 500 nodes: the name-ordered running list and the node's
// bucket each lose one attempt and gain one.
func BenchmarkRunningChurn(b *testing.B) {
	_, jt := rig(b, 500, Config{}, nil)
	rng := rand.New(rand.NewSource(3))
	attempts := make([]*Attempt, 5000)
	for i := range attempts {
		tr := jt.trackers[rng.Intn(len(jt.trackers))]
		name := fmt.Sprintf("Sort-%d/map-%d@%s", rng.Intn(400), rng.Intn(64), tr.Compute.Name())
		attempts[i] = &Attempt{Tracker: tr, consumer: &attemptConsumer{Consumer: cluster.Consumer{Name: name}}}
		jt.runningInsert(attempts[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := attempts[(i*7919)%len(attempts)]
		jt.runningRemove(a)
		jt.runningInsert(a)
	}
}
