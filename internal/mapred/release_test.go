package mapred

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/resource"
	"repro/internal/sim"
)

// launchRecorder keeps every attempt's consumers as they were at launch,
// so a test can compare an ended attempt with the consumers it dropped.
// A JobTracker reuses a retired consumer once a later event has fired,
// so the comparison must run within the event that ended the attempt:
// step drives the engine one event at a time and checks each attempt
// that ended during it.
type launchRecorder struct {
	consumer map[*Attempt]*cluster.Consumer
	serve    map[*Attempt]*cluster.Consumer
	// live holds the launched attempts not yet seen ended.
	live []*Attempt
	// served and partial count the checked attempts that had a serve
	// stream and those that ended part-way; reused counts launches that
	// got a consumer an earlier attempt had used.
	served, partial, reused int
}

func (r *launchRecorder) AttemptStarted(_ *JobTracker, a *Attempt) {
	c := a.Consumer()
	for _, old := range r.consumer {
		if old == c {
			r.reused++
			break
		}
	}
	r.consumer[a] = c
	r.serve[a] = a.serve
	r.live = append(r.live, a)
}

func (*launchRecorder) AttemptFinished(*JobTracker, *Attempt) {}

// checkEnded runs checkReleased over every attempt that has ended since
// the last call.
func (r *launchRecorder) checkEnded(t *testing.T) {
	t.Helper()
	live := r.live[:0]
	for _, a := range r.live {
		if a.Running() {
			live = append(live, a)
			continue
		}
		checkReleased(t, r, a)
		if r.serve[a] != nil {
			r.served++
		}
		if p := a.Progress(); p > 0 && p < 1 {
			r.partial++
		}
	}
	clear(r.live[len(live):])
	r.live = live
}

// step fires events one at a time, checking the attempts each ended,
// until job is done or the clock passes horizon.
func (r *launchRecorder) step(t *testing.T, engine *sim.Engine, job *Job, horizon time.Duration) {
	t.Helper()
	r.checkEnded(t)
	for !job.Done() && engine.Now() <= horizon && engine.Step() {
		r.checkEnded(t)
	}
	if !job.Done() {
		t.Fatalf("job %s did not finish", job.key)
	}
}

// releaseRig builds a split-architecture cluster (a compute and a storage
// VM per PM, so map attempts carry a storage-side serve stream) whose
// JobTracker reports every launch to a recorder.
func releaseRig(t *testing.T, pms int, cfg Config) (*sim.Engine, *JobTracker, *launchRecorder, []*cluster.PM) {
	t.Helper()
	engine := sim.New()
	c := cluster.New(engine, cluster.Config{}, 7, nil)
	jt := NewJobTracker(engine, dfs.New(engine, 7, nil), cfg, nil, nil, "")
	hosts := c.AddPMs("pm", pms)
	for _, pm := range hosts {
		compute, err := c.AddVM("tt", pm, 1, 1024)
		if err != nil {
			t.Fatal(err)
		}
		storage, err := c.AddVM("dn", pm, 1, 1024)
		if err != nil {
			t.Fatal(err)
		}
		jt.AddSplitTracker(compute, storage)
	}
	rec := &launchRecorder{consumer: map[*Attempt]*cluster.Consumer{}, serve: map[*Attempt]*cluster.Consumer{}}
	jt.SetInvariants(rec)
	return engine, jt, rec, hosts
}

// checkReleased asserts that an ended attempt keeps only its record: both
// consumers are dropped, and Progress and Speed still report what the
// ended consumer does.
func checkReleased(t *testing.T, rec *launchRecorder, a *Attempt) {
	t.Helper()
	c, ok := rec.consumer[a]
	if !ok {
		t.Fatalf("%s: attempt was never launched", a.Task.ID())
	}
	if a.Running() || c.Running() {
		t.Fatalf("%s@%s: attempt has not ended", a.Task.ID(), a.Tracker.Compute.Name())
	}
	if want := a.Task.ID() + "@" + a.Tracker.Compute.Name(); c.Name != want {
		t.Fatalf("%s: consumer renamed %s within the event that ended its attempt", want, c.Name)
	}
	if a.Consumer() != nil || a.serve != nil {
		t.Errorf("%s: ended attempt still holds its consumers", c.Name)
	}
	if got, want := a.Progress(), c.Progress(); got != want {
		t.Errorf("%s: Progress() = %v after release, want %v", c.Name, got, want)
	}
	if got, want := a.Speed(), c.Speed(); got != want {
		t.Errorf("%s: Speed() = %v after release, want %v", c.Name, got, want)
	}
}

// TestEndedAttemptsReleaseConsumers covers the four ways an attempt ends:
// completion, a kill when its tracker is lost, losing a speculative race
// and relocation. Each must leave the attempt without its consumers.
func TestEndedAttemptsReleaseConsumers(t *testing.T) {
	if size := unsafe.Sizeof(Attempt{}); size > 96 {
		t.Errorf("Attempt is %d bytes, want at most 96", size)
	}

	t.Run("finished", func(t *testing.T) {
		engine, jt, rec, _ := releaseRig(t, 4, Config{DisableSpeculation: true})
		job, err := jt.Submit(sortLike(512), nil)
		if err != nil {
			t.Fatal(err)
		}
		rec.step(t, engine, job, time.Hour)
		finished := 0
		for _, task := range append(job.Maps(), job.Reduces()...) {
			for _, a := range task.Attempts() {
				if a.finished {
					finished++
				}
			}
		}
		if finished != len(job.Maps())+len(job.Reduces()) {
			t.Fatalf("%d finished attempts, want one per task", finished)
		}
		if rec.served == 0 {
			t.Fatal("no attempt had a serve stream; the split path is untested")
		}
		if rec.reused == 0 {
			t.Fatal("no launch reused a retired consumer; the pool is untested")
		}
	})

	t.Run("killed by tracker loss", func(t *testing.T) {
		engine, jt, rec, _ := releaseRig(t, 4, Config{DisableSpeculation: true})
		job, err := jt.Submit(sortLike(1024), nil)
		if err != nil {
			t.Fatal(err)
		}
		for engine.Now() < 10*time.Second && engine.Step() {
			rec.checkEnded(t)
		}
		running := jt.RunningAttempts()
		if len(running) == 0 {
			t.Fatal("no attempt running")
		}
		tr := running[0].Tracker
		victims := append([]*Attempt(nil), jt.attemptsOn(tr)...)
		if jt.HandleNodeLost(tr.Compute) == 0 {
			t.Fatal("no tracker was lost")
		}
		for _, a := range victims {
			if !a.killed {
				t.Fatalf("%s survived its tracker's loss", a.Task.ID())
			}
			if p := rec.consumer[a].Progress(); p <= 0 || p >= 1 {
				t.Errorf("%s: killed at progress %v, want part-way", a.Task.ID(), p)
			}
		}
		rec.step(t, engine, job, time.Hour)
		if rec.partial < len(victims) {
			t.Errorf("%d attempts ended part-way, want at least the %d victims", rec.partial, len(victims))
		}
	})

	t.Run("lost speculative race", func(t *testing.T) {
		engine, jt, rec, hosts := releaseRig(t, 4, Config{})
		// A heavy antagonist makes the last PM a straggler host.
		antagonist := &cluster.Consumer{
			Name:   "antagonist",
			Demand: resource.NewVector(2, 0, 85, 0),
			Work:   cluster.OpenEnded,
			Weight: 20,
		}
		if err := hosts[3].Start(antagonist); err != nil {
			t.Fatal(err)
		}
		job, err := jt.Submit(sortLike(1024), nil)
		if err != nil {
			t.Fatal(err)
		}
		rec.step(t, engine, job, 4*time.Hour)
		jt.Close()
		lost := 0
		for _, task := range append(job.Maps(), job.Reduces()...) {
			for _, a := range task.Attempts() {
				if a.killed {
					lost++
				}
			}
		}
		if lost == 0 {
			t.Fatal("no attempt lost a speculative race; the test is vacuous")
		}
		if rec.partial == 0 {
			t.Error("every loser had progress 0 or 1; the saved fraction is untested")
		}
	})

	t.Run("relocated", func(t *testing.T) {
		engine, jt, rec, _ := releaseRig(t, 4, Config{DisableSpeculation: true})
		job, err := jt.Submit(sortLike(256), nil)
		if err != nil {
			t.Fatal(err)
		}
		for engine.Now() < 5*time.Second && engine.Step() {
			rec.checkEnded(t)
		}
		a := jt.RunningAttempts()[0]
		var dst *TaskTracker
		for _, tr := range jt.Trackers() {
			if tr != a.Tracker && tr.FreeSlots(a.Task.Kind) > 0 {
				dst = tr
				break
			}
		}
		if dst == nil {
			t.Fatal("no tracker with a free slot to relocate to")
		}
		if err := jt.Relocate(a, dst); err != nil {
			t.Fatal(err)
		}
		// The relaunch on dst must not reuse the consumer just retired.
		rec.checkEnded(t)
		if p := a.Progress(); p <= 0 {
			t.Errorf("relocated attempt's progress %v, want part-way", p)
		}
		rec.step(t, engine, job, time.Hour)
	})
}

// BenchmarkAttemptLifecycle measures one attempt from launch to
// completion: map-only jobs of at most 100 one-second maps drain through
// a single one-slot tracker, so job setup is amortized over the attempts.
func BenchmarkAttemptLifecycle(b *testing.B) {
	engine, jt := rig(b, 1, Config{MapSlots: 1, DisableSpeculation: true}, nil)
	spec := piLike()
	spec.Reduces = 0
	spec.FixedMapWork = 1
	b.ReportAllocs()
	for done := 0; done < b.N; done += spec.FixedMapTasks {
		spec.FixedMapTasks = min(100, b.N-done)
		job, err := jt.Submit(spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		engine.Run()
		if !job.Done() {
			b.Fatal("job did not finish")
		}
	}
}

// TestAttemptNameAllocatesOnce pins launch's naming: the consumer name is
// one concatenation and the task ID is its prefix, at any task index.
func TestAttemptNameAllocatesOnce(t *testing.T) {
	job := &Job{key: "Sort-12"}
	for _, index := range []int{7, 1234567} {
		task := &Task{Job: job, Kind: ReduceTask, Index: index}
		name, id := task.attemptName("vm-3")
		if id != task.ID() || name != task.ID()+"@vm-3" {
			t.Errorf("attemptName = %q, %q; want %q, %q", name, id, task.ID()+"@vm-3", task.ID())
		}
		if allocs := testing.AllocsPerRun(100, func() { task.attemptName("vm-3") }); allocs != 1 {
			t.Errorf("index %d: attemptName allocates %v times, want 1", index, allocs)
		}
	}
}
