package mapred

import "testing"

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
