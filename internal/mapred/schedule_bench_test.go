package mapred

import "testing"

// drainingScheduler assigns nothing, and after a fixed number of probes
// closes both phase gates, as launching the last pending task would: a
// schedule() round then stops after a few visits, the shape of a round
// at the scale-up point (about three probes per round).
type drainingScheduler struct {
	probes, after int
}

func (*drainingScheduler) Name() string { return "draining" }

func (s *drainingScheduler) NextTask(jt *JobTracker, _ *TaskTracker, _ TaskKind) *Task {
	if s.probes++; s.probes >= s.after {
		jt.schedulableMaps, jt.schedulableReds = 0, 0
	}
	return nil
}

// BenchmarkJTSchedule measures one schedule() round on a 15,000-tracker
// capacity-aware fleet (the scale-up point) that probes three (tracker,
// kind) pairs before the queue drains.
func BenchmarkJTSchedule(b *testing.B) {
	sched := &drainingScheduler{after: 3}
	_, jt := rig(b, 15000, Config{CapacityAware: true}, sched)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.probes = 0
		jt.schedulableMaps, jt.schedulableReds = 1, 1
		jt.schedule()
	}
}
