package mapred

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/perfstat"
	"repro/internal/sim"
)

// speculationRig queues two Sort jobs and a PiEst job on six identical
// PMs and runs until the first map wave is executing: every running
// attempt of a job and kind progresses at the same rate, so no attempt
// is a straggler and a speculation tick launches nothing.
func speculationRig(t testing.TB) (*JobTracker, *perfstat.Stats) {
	t.Helper()
	engine := sim.New()
	c := cluster.New(engine, cluster.Config{}, 7, nil)
	ps := perfstat.New()
	jt := NewJobTracker(engine, dfs.New(engine, 7, nil), Config{}, nil, &obs.Sinks{Perf: ps}, "")
	for _, pm := range c.AddPMs("pm", 6) {
		jt.AddTracker(pm)
	}
	for _, spec := range []JobSpec{sortLike(512), sortLike(384), piLike()} {
		if _, err := jt.Submit(spec, nil); err != nil {
			t.Fatal(err)
		}
	}
	engine.RunUntil(2 * time.Second)
	if jt.RunningCount() < 4 {
		t.Fatalf("%d running attempts, want a full first wave", jt.RunningCount())
	}
	return jt, ps
}

// TestSpeculationGroupsFollowRunningOrder checks the scratch grouping
// against the list it replaces: each job's map and reduce groups hold
// exactly its running attempts of that kind, in RunningAttempts order,
// and a reset leaves no group or pointer behind.
func TestSpeculationGroupsFollowRunningOrder(t *testing.T) {
	jt, _ := speculationRig(t)
	sc := &jt.spec
	running := jt.RunningAttempts()
	for _, a := range running {
		sc.add(a)
	}
	jobs := map[*Job]bool{}
	for _, a := range running {
		jobs[a.Task.Job] = true
	}
	if len(jobs) < 2 {
		t.Fatalf("attempts of %d jobs running, want at least 2", len(jobs))
	}
	if got, want := len(sc.group), len(jobs); got != want {
		t.Fatalf("%d jobs grouped, want %d", got, want)
	}
	for job := range jobs {
		g, ok := sc.group[job]
		if !ok {
			t.Fatalf("job %d has running attempts but no group", job.ID)
		}
		for _, kind := range [...]TaskKind{MapTask, ReduceTask} {
			var want []*Attempt
			for _, a := range running {
				if a.Task.Job == job && a.Task.Kind == kind {
					want = append(want, a)
				}
			}
			got := sc.attempts[g+kind.slot()]
			if len(got) != len(want) {
				t.Fatalf("job %d %v: %d attempts grouped, want %d", job.ID, kind, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("job %d %v attempt %d = %s, want %s", job.ID, kind, i, got[i].consumer.Name, want[i].consumer.Name)
				}
			}
		}
	}
	sc.reset()
	if len(sc.group) != 0 || sc.used != 0 {
		t.Fatalf("reset left %d jobs and %d groups", len(sc.group), sc.used)
	}
	for i, g := range sc.attempts {
		if len(g) != 0 {
			t.Errorf("group %d has length %d after reset", i, len(g))
		}
		for _, a := range g[:cap(g)] {
			if a != nil {
				t.Fatalf("group %d still points at %s after reset", i, a.consumer.Name)
			}
		}
	}
}

// TestSpeculateSteadyStateAllocatesNothing pins the per-tick cost of a
// scan that finds no straggler: after one warm-up tick the scratch holds
// every group, so later ticks allocate nothing, launch nothing and count
// the same scans the copying code did.
func TestSpeculateSteadyStateAllocatesNothing(t *testing.T) {
	jt, ps := speculationRig(t)
	running := int64(jt.RunningCount())
	jt.speculate() // warm-up: sizes the scratch
	sorted, scans := ps.C.JTAttemptsSorted, ps.C.JTSpeculationScans
	const runs = 50
	if allocs := testing.AllocsPerRun(runs, jt.speculate); allocs != 0 {
		t.Errorf("speculate allocates %v times per tick, want 0", allocs)
	}
	if got := int64(jt.RunningCount()); got != running {
		t.Fatalf("running attempts %d -> %d: a tick launched a backup", running, got)
	}
	// AllocsPerRun adds one warm-up call of its own.
	if got, want := ps.C.JTSpeculationScans-scans, (runs+1)*running; got != want {
		t.Errorf("jt.speculation_scans grew by %d, want %d", got, want)
	}
	if got, want := ps.C.JTAttemptsSorted-sorted, (runs+1)*running; got != want {
		t.Errorf("jt.attempts_sorted grew by %d, want %d", got, want)
	}
}

// TestEachRunningAttemptMatchesRunningAttempts checks the in-place walk
// against the copy: same attempts, same order, same jt.attempts_sorted
// count.
func TestEachRunningAttemptMatchesRunningAttempts(t *testing.T) {
	jt, ps := speculationRig(t)
	before := ps.C.JTAttemptsSorted
	want := jt.RunningAttempts()
	copied := ps.C.JTAttemptsSorted - before
	var got []*Attempt
	jt.EachRunningAttempt(func(a *Attempt) { got = append(got, a) })
	if walked := ps.C.JTAttemptsSorted - before - copied; walked != copied {
		t.Errorf("walk counted %d attempts, copy counted %d", walked, copied)
	}
	if len(got) != len(want) {
		t.Fatalf("walk visited %d attempts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("attempt %d = %s, want %s", i, got[i].consumer.Name, want[i].consumer.Name)
		}
	}
}

// BenchmarkSpeculate measures one straggler scan over a first map wave
// that holds no straggler, the common tick.
func BenchmarkSpeculate(b *testing.B) {
	jt, _ := speculationRig(b)
	jt.speculate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jt.speculate()
	}
}
