package mapred

import (
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/sim"
)

// relocateRig builds five PMs, the first four with one tracker VM each
// and the last empty (a migration destination), runs a Sort job with
// speculation off until its two maps run, and returns the first running
// map attempt. Every tracker keeps a free map slot.
func relocateRig(t *testing.T) (*sim.Engine, *cluster.Cluster, *JobTracker, *Job, *Attempt) {
	t.Helper()
	engine := sim.New()
	c := cluster.New(engine, cluster.Config{}, 7, nil)
	jt := NewJobTracker(engine, dfs.New(engine, 7, nil), Config{DisableSpeculation: true}, nil, nil, "")
	for _, pm := range c.AddPMs("pm", 5)[:4] {
		vm, err := c.AddVM("tt", pm, 2, 2048)
		if err != nil {
			t.Fatal(err)
		}
		jt.AddTracker(vm)
	}
	job, err := jt.Submit(sortLike(128), nil)
	if err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(100 * time.Millisecond)
	for _, a := range jt.RunningAttempts() {
		if a.Task.Kind == MapTask {
			return engine, c, jt, job, a
		}
	}
	t.Fatal("no map attempt running")
	return nil, nil, nil, nil, nil
}

// freeTracker returns a tracker with a free slot of the kind other than
// the ones excluded.
func freeTracker(t *testing.T, jt *JobTracker, kind TaskKind, exclude ...*TaskTracker) *TaskTracker {
	t.Helper()
	for _, tr := range jt.Trackers() {
		if !slices.Contains(exclude, tr) && tr.FreeSlots(kind) > 0 {
			return tr
		}
	}
	t.Fatal("no tracker with a free slot")
	return nil
}

// running counts a task's running primary and backup attempts.
func running(task *Task) (primaries, backups int) {
	for _, a := range task.Attempts() {
		if a.Running() {
			if a.Speculative {
				backups++
			} else {
				primaries++
			}
		}
	}
	return primaries, backups
}

// TestRelocateBackupStaysBackup relocates a speculative backup while its
// primary runs: the task must keep exactly one primary and one backup
// running, the relaunch must be the backup, on the destination, and the
// task must never rejoin the pending counters or the pending-job list.
func TestRelocateBackupStaysBackup(t *testing.T) {
	engine, _, jt, job, primary := relocateRig(t)
	task := primary.Task
	if err := jt.launch(task, freeTracker(t, jt, MapTask, primary.Tracker), true); err != nil {
		t.Fatal(err)
	}
	backup := task.attempts[len(task.attempts)-1]
	pendingMaps, listed := job.pendingMaps, slices.Contains(jt.pendingJobs(MapTask), job)
	dst := freeTracker(t, jt, MapTask, primary.Tracker, backup.Tracker)
	if err := jt.Relocate(backup, dst); err != nil {
		t.Fatal(err)
	}
	if p, b := running(task); p != 1 || b != 1 {
		t.Fatalf("after relocating the backup: %d primaries and %d backups running, want 1 and 1", p, b)
	}
	if moved := task.attempts[len(task.attempts)-1]; !moved.Speculative || moved.Tracker != dst || !moved.Running() {
		t.Fatalf("the relaunch is not a running backup on %s", dst.Compute.Name())
	}
	if !primary.Running() {
		t.Fatal("relocating the backup ended the primary")
	}
	if task.State() != TaskRunning || job.pendingMaps != pendingMaps ||
		slices.Contains(jt.pendingJobs(MapTask), job) != listed {
		t.Fatalf("task state %v, %d pending maps (was %d): the relocated task rejoined the pending work",
			task.State(), job.pendingMaps, pendingMaps)
	}
	for !job.Done() && engine.Step() {
	}
	if !job.Done() {
		t.Fatal("job did not finish after the relocation")
	}
}

// TestRelocateIsAllOrNothing sends an attempt to each kind of destination
// Relocate must refuse — a lost tracker, a tracker whose VM is migrating
// or was destroyed with its host, and a tracker with no free slot — and
// checks that the refusal changes
// nothing: the original attempt keeps running on its own tracker, with
// its consumer, and no attempt is added.
func TestRelocateIsAllOrNothing(t *testing.T) {
	cases := []struct {
		name    string
		prepare func(t *testing.T, c *cluster.Cluster, jt *JobTracker, dst *TaskTracker)
	}{
		{"lost", func(t *testing.T, _ *cluster.Cluster, jt *JobTracker, dst *TaskTracker) {
			if jt.HandleNodeLost(dst.Compute) != 1 || !dst.Lost() {
				t.Fatal("destination not declared lost")
			}
		}},
		{"migrating", func(t *testing.T, c *cluster.Cluster, _ *JobTracker, dst *TaskTracker) {
			if err := c.Migrate(dst.Compute.(*cluster.VM), c.PMs()[4], nil); err != nil {
				t.Fatal(err)
			}
			if !inMigration(dst) {
				t.Fatal("destination VM not migrating")
			}
		}},
		{"destroyed", func(t *testing.T, _ *cluster.Cluster, _ *JobTracker, dst *TaskTracker) {
			// The host fails; the tracker is not declared lost until its
			// heartbeat times out.
			dst.Compute.Machine().Fail()
			if dst.Lost() || dst.Compute.Machine() != nil {
				t.Fatal("destination VM not destroyed, or its tracker already lost")
			}
		}},
		{"full", func(t *testing.T, _ *cluster.Cluster, jt *JobTracker, dst *TaskTracker) {
			dst.mapRunning = jt.cfg.MapSlots
			jt.syncFree(dst)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c, jt, _, a := relocateRig(t)
			dst := freeTracker(t, jt, MapTask, a.Tracker)
			tc.prepare(t, c, jt, dst)
			attempts, consumer := len(a.Task.attempts), a.Consumer()
			if err := jt.Relocate(a, dst); err == nil {
				t.Fatalf("Relocate to a %s tracker succeeded", tc.name)
			}
			if !a.Running() || a.Consumer() != consumer || !consumer.Running() || len(a.Task.attempts) != attempts {
				t.Fatalf("a refused Relocate to a %s tracker ended the original attempt", tc.name)
			}
		})
	}
}
