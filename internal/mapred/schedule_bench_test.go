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

// idleScheduler assigns nothing, so jobs submitted under it stay queued
// until a benchmark moves their tasks itself.
type idleScheduler struct{}

func (idleScheduler) Name() string                                       { return "idle" }
func (idleScheduler) NextTask(*JobTracker, *TaskTracker, TaskKind) *Task { return nil }

// BenchmarkNextTask measures one scheduler probe with 800 active jobs of
// which only the last submitted has pending work — the shape of a probe
// at the scale-up point, where a wave's jobs have every task running and
// one job still waits for slots.
func BenchmarkNextTask(b *testing.B) {
	_, jt := rig(b, 64, Config{}, idleScheduler{})
	spec := piLike()
	spec.FixedMapTasks = 1
	for i := 0; i < 800; i++ {
		job, err := jt.Submit(spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i < 799 {
			jt.setTaskState(job.maps[0], TaskRunning)
		}
	}
	tr := jt.trackers[0]
	for _, s := range []Scheduler{FIFO{}, Fair{}, LocalityGreedy{}, JobDriven{}} {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s.NextTask(jt, tr, MapTask) == nil {
					b.Fatal("no task found")
				}
			}
		})
	}
}
