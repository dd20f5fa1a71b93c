package mapred

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/resource"
	"repro/internal/sim"
)

func memoryKindForTest() resource.Kind { return resource.Memory }

func newEngineForTest() *sim.Engine { return sim.New() }

// newVirtualJT builds a virtual cluster (1 GB single-vCPU guests) with a
// JobTracker over its VMs.
func newVirtualJT(t *testing.T, engine *sim.Engine, pms, vmsPerPM int) *JobTracker {
	t.Helper()
	c := cluster.New(engine, cluster.Config{}, 7, nil)
	fs := dfs.New(engine, 7, nil)
	jt := NewJobTracker(engine, fs, Config{}, nil, nil, "")
	hosts := c.AddPMs("pm", pms)
	vms, err := c.SpreadVMs("vm", pms*vmsPerPM, hosts, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms {
		jt.AddTracker(vm)
	}
	return jt
}

func kmeansLike(inputMB float64) JobSpec {
	return JobSpec{
		Name:             "Kmeans",
		InputMB:          inputMB,
		Reduces:          4,
		MapStreamMBps:    40,
		MapCPUPerMB:      0.05,
		MapMemMB:         250,
		ShuffleRatio:     0.06,
		ReduceStreamMBps: 30,
		ReduceCPUPerMB:   0.03,
		ReduceMemMB:      250,
		OutputRatio:      1,
	}
}

func TestIterativeJobChainsRounds(t *testing.T) {
	engine, jt := rig(t, 4, Config{}, nil)
	var finished *IterativeJob
	ij, err := jt.SubmitIterative(IterativeSpec{
		Base:         kmeansLike(512),
		Iterations:   3,
		OutputGrowth: 1,
	}, func(j *IterativeJob) { finished = j })
	if err != nil {
		t.Fatal(err)
	}
	engine.Run()
	if finished != ij {
		t.Fatal("OnComplete not delivered")
	}
	if !ij.Done() || ij.Err() != nil {
		t.Fatalf("chain incomplete: done=%v err=%v", ij.Done(), ij.Err())
	}
	if got := ij.CompletedIterations(); got != 3 {
		t.Errorf("completed iterations = %d, want 3", got)
	}
	jobs := ij.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("launched %d jobs, want 3", len(jobs))
	}
	// Rounds are sequenced: each starts after the previous finishes.
	var sum time.Duration
	for i, j := range jobs {
		if !j.Done() {
			t.Fatalf("round %d incomplete", i)
		}
		sum += j.JCT()
	}
	if ij.JCT() < sum {
		t.Errorf("chain JCT %v below the sum of rounds %v (rounds overlapped)", ij.JCT(), sum)
	}
	for i, j := range jobs {
		want := "Kmeans-iter" + string(rune('0'+i))
		if j.Spec.Name != want {
			t.Errorf("round %d name = %s, want %s", i, j.Spec.Name, want)
		}
	}
}

func TestIterativeOutputGrowthShrinksInput(t *testing.T) {
	engine, jt := rig(t, 4, Config{}, nil)
	ij, err := jt.SubmitIterative(IterativeSpec{
		Base:         kmeansLike(2048),
		Iterations:   3,
		OutputGrowth: 0.5,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine.Run()
	jobs := ij.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("launched %d jobs", len(jobs))
	}
	if jobs[1].Spec.InputMB >= jobs[0].Spec.InputMB {
		t.Errorf("round 1 input %v not below round 0 %v", jobs[1].Spec.InputMB, jobs[0].Spec.InputMB)
	}
	if jobs[2].Spec.InputMB >= jobs[1].Spec.InputMB {
		t.Errorf("round 2 input %v not below round 1 %v", jobs[2].Spec.InputMB, jobs[1].Spec.InputMB)
	}
}

func TestIterativeValidation(t *testing.T) {
	_, jt := rig(t, 2, Config{}, nil)
	if _, err := jt.SubmitIterative(IterativeSpec{Base: kmeansLike(512)}, nil); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := jt.SubmitIterative(IterativeSpec{Base: JobSpec{}, Iterations: 2}, nil); err == nil {
		t.Error("invalid base spec accepted")
	}
	if _, err := jt.SubmitIterative(IterativeSpec{Base: kmeansLike(512), Iterations: 2, OutputGrowth: -1}, nil); err == nil {
		t.Error("negative growth accepted")
	}
}

func TestIterativeFixedWorkJob(t *testing.T) {
	engine, jt := rig(t, 2, Config{}, nil)
	pi := JobSpec{Name: "PiEst", Reduces: 1, FixedMapWork: 20, FixedMapTasks: 4, MapMemMB: 150}
	ij, err := jt.SubmitIterative(IterativeSpec{Base: pi, Iterations: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine.Run()
	if !ij.Done() || ij.CompletedIterations() != 2 {
		t.Fatalf("fixed-work chain incomplete: %d/2", ij.CompletedIterations())
	}
}

func TestInMemoryShiftsDiskToMemory(t *testing.T) {
	// Same Sort-shaped job, classic vs in-memory, on one native node with
	// plenty of RAM: in-memory must be at least as fast (no spill) and
	// its reduce tasks must demand more memory.
	run := func(inMemory bool) (jct float64, maxMem float64) {
		engine, jt := rig(t, 4, Config{}, nil)
		spec := sortLike(1024)
		spec.InMemory = inMemory
		job, err := jt.Submit(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		sampled := 0.0
		for !job.Done() {
			engine.RunUntil(engine.Now() + time.Second)
			for _, a := range jt.RunningAttempts() {
				if m := a.Consumer().Demand.Get(memoryKindForTest()); m > sampled {
					sampled = m
				}
			}
			if engine.Now() > 4*time.Hour {
				t.Fatal("job stalled")
			}
		}
		return job.JCT().Seconds(), sampled
	}
	classicJCT, classicMem := run(false)
	memJCT, memMem := run(true)
	if memJCT > classicJCT {
		t.Errorf("in-memory JCT %v slower than classic %v with ample RAM", memJCT, classicJCT)
	}
	if memMem <= classicMem {
		t.Errorf("in-memory peak task memory %v not above classic %v", memMem, classicMem)
	}
}

func TestInMemoryPaysPagingOnSmallVMs(t *testing.T) {
	// On 1 GB guests, caching an entire Sort partition in RAM overcommits
	// the VM: the Spark-style variant should lose its advantage or pay a
	// paging penalty relative to its own performance on big-memory nodes.
	run := func(inMemory bool) float64 {
		engine := newEngineForTest()
		jt := newVirtualJT(t, engine, 4, 2)
		spec := sortLike(2048)
		spec.InMemory = inMemory
		job, err := jt.Submit(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		engine.Run()
		if !job.Done() {
			t.Fatal("job stalled")
		}
		return job.JCT().Seconds()
	}
	classic := run(false)
	inMem := run(true)
	// With 24 reducers each caching ~85 MB plus base footprints on 1 GB
	// VMs, in-memory should not be dramatically better; allow it to win
	// modestly but flag a suspiciously large gap, which would mean the
	// memory pressure model is not engaging.
	if inMem < classic*0.5 {
		t.Errorf("in-memory %vs vs classic %vs: paging pressure not engaging", inMem, classic)
	}
}
