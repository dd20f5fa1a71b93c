package mapred

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sortLike is a Sort-shaped spec: I/O bound, shuffle ≈ input.
func sortLike(inputMB float64) JobSpec {
	return JobSpec{
		Name:             "Sort",
		InputMB:          inputMB,
		Reduces:          4,
		MapStreamMBps:    50,
		MapCPUPerMB:      0.004,
		MapMemMB:         200,
		ShuffleRatio:     1,
		ReduceStreamMBps: 40,
		ReduceCPUPerMB:   0.004,
		ReduceMemMB:      300,
		OutputRatio:      1,
	}
}

// piLike is a PiEst-shaped spec: pure CPU, negligible data.
func piLike() JobSpec {
	return JobSpec{
		Name:          "PiEst",
		Reduces:       1,
		FixedMapWork:  30,
		FixedMapTasks: 8,
		MapMemMB:      150,
		ReduceMemMB:   100,
	}
}

// rig builds an engine, native cluster, DFS and JobTracker over n PMs.
func rig(t testing.TB, nPMs int, cfg Config, sched Scheduler) (*sim.Engine, *JobTracker) {
	t.Helper()
	engine := sim.New()
	c := cluster.New(engine, cluster.DefaultConfig(), 7, nil)
	fs := dfs.New(engine, dfs.Config{}, 7, nil)
	jt := NewJobTracker(engine, fs, cfg, sched, nil, "")
	for _, pm := range c.AddPMs("pm", nPMs) {
		jt.AddTracker(pm)
	}
	return engine, jt
}

func runJob(t *testing.T, engine *sim.Engine, jt *JobTracker, spec JobSpec) *Job {
	t.Helper()
	job, err := jt.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine.Run()
	if !job.Done() {
		t.Fatalf("job %s-%d did not complete", spec.Name, job.ID)
	}
	return job
}

func TestJobCompletesWithPhases(t *testing.T) {
	engine, jt := rig(t, 4, Config{}, nil)
	job := runJob(t, engine, jt, sortLike(1024))
	if job.JCT() <= 0 {
		t.Errorf("JCT = %v, want > 0", job.JCT())
	}
	if job.MapPhase() <= 0 {
		t.Errorf("map phase = %v, want > 0", job.MapPhase())
	}
	if job.ReducePhase() <= 0 {
		t.Errorf("reduce phase = %v, want > 0", job.ReducePhase())
	}
	if got := job.MapPhase() + job.ReducePhase(); got != job.JCT() {
		t.Errorf("phases sum %v != JCT %v", got, job.JCT())
	}
	// 1024 MB / 64 MB blocks = 16 map tasks.
	if got := len(job.Maps()); got != 16 {
		t.Errorf("map tasks = %d, want 16", got)
	}
	if got := len(job.Reduces()); got != 4 {
		t.Errorf("reduce tasks = %d, want 4", got)
	}
}

func TestMoreNodesFasterJCT(t *testing.T) {
	jct := func(n int) time.Duration {
		engine, jt := rig(t, n, Config{}, nil)
		return runJob(t, engine, jt, sortLike(2048)).JCT()
	}
	j2, j4, j8 := jct(2), jct(4), jct(8)
	if !(j2 > j4 && j4 > j8) {
		t.Errorf("JCT not decreasing with cluster size: 2=%v 4=%v 8=%v", j2, j4, j8)
	}
	// Inverse-style relation: doubling nodes should cut JCT well below
	// 75%, not just marginally.
	if float64(j4) > 0.75*float64(j2) {
		t.Errorf("scaling too weak: 4 nodes %v vs 2 nodes %v", j4, j2)
	}
}

func TestDataSizeRoughlyLinear(t *testing.T) {
	jct := func(mb float64) float64 {
		engine, jt := rig(t, 4, Config{}, nil)
		return runJob(t, engine, jt, sortLike(mb)).JCT().Seconds()
	}
	j1, j2, j4 := jct(1024), jct(2048), jct(4096)
	r21 := j2 / j1
	r42 := j4 / j2
	if r21 < 1.5 || r21 > 2.6 || r42 < 1.5 || r42 > 2.6 {
		t.Errorf("doubling ratios %v, %v not roughly linear (JCTs %v %v %v)", r21, r42, j1, j2, j4)
	}
}

func TestCPUBoundJobUsesAllCores(t *testing.T) {
	// 8 fixed-work maps of 30s each on 2 PMs x 2 slots = 4 concurrent:
	// 2 waves ≈ 60s + overhead + reduce.
	engine, jt := rig(t, 2, Config{}, nil)
	job := runJob(t, engine, jt, piLike())
	jct := job.JCT().Seconds()
	if jct < 60 || jct > 90 {
		t.Errorf("PiEst JCT = %v, want ~60-90s (2 waves of 30s + overhead)", jct)
	}
}

func TestMapOnlyJob(t *testing.T) {
	engine, jt := rig(t, 2, Config{}, nil)
	spec := piLike()
	spec.Reduces = 0
	job := runJob(t, engine, jt, spec)
	if job.ReducePhase() != 0 {
		t.Errorf("map-only job has reduce phase %v", job.ReducePhase())
	}
}

func TestSubmitValidation(t *testing.T) {
	_, jt := rig(t, 2, Config{}, nil)
	bad := []JobSpec{
		{},                           // no name
		{Name: "x"},                  // no input, no fixed work
		{Name: "x", FixedMapWork: 5}, // fixed work without task count
		{Name: "x", InputMB: -3},     // negative input
		{Name: "x", InputMB: 100, MapStreamMBps: 10, Reduces: -1}, // negative reduces
	}
	for i, spec := range bad {
		if _, err := jt.Submit(spec, nil); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	empty := NewJobTracker(jt.Engine(), jt.FS(), Config{}, nil, nil, "")
	if _, err := empty.Submit(sortLike(128), nil); err == nil {
		t.Error("submit with no trackers accepted")
	}
}

func TestOnCompleteCallback(t *testing.T) {
	engine, jt := rig(t, 2, Config{}, nil)
	var completed *Job
	job, err := jt.Submit(sortLike(256), func(j *Job) { completed = j })
	if err != nil {
		t.Fatal(err)
	}
	engine.Run()
	if completed != job {
		t.Error("OnComplete not invoked with the job")
	}
}

func TestFairSchedulerHelpsSmallJob(t *testing.T) {
	smallJCT := func(sched Scheduler) time.Duration {
		engine, jt := rig(t, 4, Config{}, sched)
		big := sortLike(4096)
		big.Name = "Big"
		small := sortLike(256)
		small.Name = "Small"
		var bigDone, smallDone bool
		var jct time.Duration
		if _, err := jt.Submit(big, func(j *Job) { bigDone = true }); err != nil {
			t.Fatal(err)
		}
		// Small job arrives shortly after the big one monopolizes slots.
		engine.After(5*time.Second, func() {
			if _, err := jt.Submit(small, func(j *Job) {
				smallDone = true
				jct = j.JCT()
			}); err != nil {
				t.Error(err)
			}
		})
		engine.Run()
		if !bigDone || !smallDone {
			t.Fatalf("%s: jobs incomplete (big=%v small=%v)", sched.Name(), bigDone, smallDone)
		}
		return jct
	}
	fifo := smallJCT(FIFO{})
	fair := smallJCT(Fair{})
	if fair >= fifo {
		t.Errorf("Fair did not help the small job: fair=%v fifo=%v", fair, fifo)
	}
}

func TestSpeculationRescuesStraggler(t *testing.T) {
	run := func(disable bool) time.Duration {
		engine := sim.New()
		c := cluster.New(engine, cluster.DefaultConfig(), 7, nil)
		fs := dfs.New(engine, dfs.Config{}, 7, nil)
		jt := NewJobTracker(engine, fs, Config{DisableSpeculation: disable}, nil, nil, "")
		pms := c.AddPMs("pm", 4)
		for _, pm := range pms {
			jt.AddTracker(pm)
		}
		// A heavy antagonist makes pm-3 a straggler node.
		antagonist := &cluster.Consumer{
			Name:   "antagonist",
			Demand: resource.NewVector(2, 0, 85, 0),
			Work:   cluster.OpenEnded,
			Weight: 20,
		}
		if err := pms[3].Start(antagonist); err != nil {
			t.Fatal(err)
		}
		job, err := jt.Submit(sortLike(1024), nil)
		if err != nil {
			t.Fatal(err)
		}
		engine.RunUntil(4 * time.Hour)
		jt.Close()
		if !job.Done() {
			t.Fatalf("job did not finish (speculation disabled=%v)", disable)
		}
		return job.JCT()
	}
	withSpec := run(false)
	withoutSpec := run(true)
	if withSpec >= withoutSpec {
		t.Errorf("speculation did not help: with=%v without=%v", withSpec, withoutSpec)
	}
}

func TestKilledAttemptReexecutes(t *testing.T) {
	engine, jt := rig(t, 2, Config{}, nil)
	job, err := jt.Submit(sortLike(512), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Kill every running attempt once, early in the run.
	killed := 0
	engine.After(5*time.Second, func() {
		for _, a := range jt.RunningAttempts() {
			a.Consumer().Kill()
			killed++
		}
	})
	engine.Run()
	if killed == 0 {
		t.Fatal("nothing was killed; test is vacuous")
	}
	if !job.Done() {
		t.Fatal("job did not recover from kills")
	}
	// At least one task must have more than one attempt.
	multi := 0
	for _, task := range job.Maps() {
		if len(task.Attempts()) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no task was re-executed after kill")
	}
}

func TestSplitArchitectureCompletes(t *testing.T) {
	engine := sim.New()
	c := cluster.New(engine, cluster.DefaultConfig(), 7, nil)
	fs := dfs.New(engine, dfs.Config{}, 7, nil)
	jt := NewJobTracker(engine, fs, Config{}, nil, nil, "")
	pms := c.AddPMs("pm", 4)
	for i, pm := range pms {
		compute, err := c.AddVM("tt", pm, 1, 1024)
		if err != nil {
			t.Fatal(err)
		}
		storage, err := c.AddVM("dn", pm, 1, 1024)
		if err != nil {
			t.Fatal(err)
		}
		_ = i
		jt.AddSplitTracker(compute, storage)
	}
	job := runJob(t, engine, jt, sortLike(512))
	if job.JCT() <= 0 {
		t.Error("split job JCT not recorded")
	}
}

func TestLocalityPreferred(t *testing.T) {
	engine, jt := rig(t, 8, Config{}, nil)
	job, err := jt.Submit(sortLike(2048), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sample placement quality shortly after scheduling.
	local, total := 0, 0
	engine.After(2*time.Second, func() {
		for _, a := range jt.RunningAttempts() {
			if a.Task.Kind != MapTask || a.Task.Block == nil {
				continue
			}
			total++
			if jt.FS().BlockLocality(a.Task.Block, a.Tracker.Storage) == dfs.NodeLocal {
				local++
			}
		}
	})
	engine.Run()
	if !job.Done() {
		t.Fatal("job incomplete")
	}
	if total == 0 {
		t.Fatal("no running map attempts sampled")
	}
	if float64(local)/float64(total) < 0.5 {
		t.Errorf("only %d/%d sampled maps node-local; locality scheduling broken", local, total)
	}
}

func TestReduceBarrier(t *testing.T) {
	engine, jt := rig(t, 2, Config{}, nil)
	job, err := jt.Submit(sortLike(512), nil)
	if err != nil {
		t.Fatal(err)
	}
	violated := false
	var tick *sim.Ticker
	tick = sim.NewTicker(engine, time.Second, func(time.Duration) {
		if job.Done() {
			tick.Stop()
			return
		}
		for _, a := range jt.RunningAttempts() {
			if a.Task.Kind == ReduceTask && a.Task.Job == job && job.State() == JobMapPhase {
				violated = true
			}
		}
	})
	engine.Run()
	if violated {
		t.Error("reduce attempt observed during map phase")
	}
	if !job.Done() {
		t.Fatal("job incomplete")
	}
}

func TestSlotLimitsRespected(t *testing.T) {
	engine, jt := rig(t, 2, Config{MapSlots: 2, ReduceSlots: 2}, nil)
	job, err := jt.Submit(sortLike(2048), nil)
	if err != nil {
		t.Fatal(err)
	}
	maxPerTracker := 0
	var tick *sim.Ticker
	tick = sim.NewTicker(engine, time.Second, func(time.Duration) {
		if job.Done() {
			tick.Stop()
			return
		}
		counts := make(map[*TaskTracker]int)
		for _, a := range jt.RunningAttempts() {
			if a.Task.Kind == MapTask {
				counts[a.Tracker]++
			}
		}
		for _, n := range counts {
			if n > maxPerTracker {
				maxPerTracker = n
			}
		}
	})
	engine.Run()
	if !job.Done() {
		t.Fatal("job incomplete")
	}
	if maxPerTracker > 2 {
		t.Errorf("observed %d concurrent maps on one tracker, slots = 2", maxPerTracker)
	}
}

func TestWithHelpers(t *testing.T) {
	s := sortLike(1000)
	if got := s.WithInputMB(123).InputMB; got != 123 {
		t.Errorf("WithInputMB = %v", got)
	}
	if got := s.WithReduces(9).Reduces; got != 9 {
		t.Errorf("WithReduces = %v", got)
	}
	if s.InputMB != 1000 || s.Reduces != 4 {
		t.Error("With helpers mutated the receiver")
	}
}

func TestMapredMetricsInstrumentation(t *testing.T) {
	engine := sim.New()
	tr := trace.New(engine)
	reg := trace.NewRegistry()
	sinks := &obs.Sinks{Tracer: tr, Metrics: reg}
	c := cluster.New(engine, cluster.DefaultConfig(), 7, sinks)
	fs := dfs.New(engine, dfs.Config{}, 7, sinks)
	jt := NewJobTracker(engine, fs, Config{}, nil, sinks, "")
	pms := c.AddPMs("pm", 4)
	for _, pm := range pms {
		jt.AddTracker(pm)
	}
	// A heavy antagonist makes pm-3 a straggler node, forcing
	// speculative backups.
	antagonist := &cluster.Consumer{
		Name:   "antagonist",
		Demand: resource.NewVector(2, 0, 85, 0),
		Work:   cluster.OpenEnded,
		Weight: 20,
	}
	if err := pms[3].Start(antagonist); err != nil {
		t.Fatal(err)
	}
	job, err := jt.Submit(sortLike(1024), nil)
	if err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(4 * time.Hour)
	jt.Close()
	if !job.Done() {
		t.Fatal("job did not finish")
	}

	if h := reg.Histogram("mapred.task.slot_wait_sec"); h.Count() == 0 {
		t.Error("slot-wait histogram is empty")
	}
	if h := reg.Histogram("mapred.attempt.duration_sec"); h.Count() == 0 {
		t.Error("attempt-duration histogram is empty")
	}
	if got := reg.Counter("mapred.attempts.speculative").Value(); got == 0 {
		t.Error("speculative-launch counter is zero despite a straggler node")
	}
	if got := reg.Counter("mapred.jobs.completed").Value(); got != 1 {
		t.Errorf("jobs completed = %v, want 1", got)
	}
	locality := reg.Counter("dfs.reads.node_local").Value() +
		reg.Counter("dfs.reads.host_local").Value() +
		reg.Counter("dfs.reads.remote").Value()
	if locality == 0 {
		t.Error("data-locality read counters are all zero")
	}
	// Every map attempt span should carry a slot-wait argument via the
	// trace too.
	if tr.Len() == 0 {
		t.Error("tracer recorded no events")
	}
}
