package mapred

import (
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/resource"
	"repro/internal/trace"
)

// TaskKind distinguishes map from reduce tasks.
type TaskKind int

// Task kinds.
const (
	MapTask TaskKind = iota + 1
	ReduceTask
)

// String names the kind.
func (k TaskKind) String() string {
	if k == MapTask {
		return "map"
	}
	return "reduce"
}

// TaskState is a task's scheduling state.
type TaskState int

// Task states.
const (
	TaskPending TaskState = iota + 1
	TaskRunning
	TaskDone
)

// Task is one map or reduce task of a job. A task may have several
// attempts (re-execution after a kill, or speculative backups); it is done
// when any attempt completes.
type Task struct {
	// Job is the owning job.
	Job *Job
	// Kind is map or reduce.
	Kind TaskKind
	// Index is the task number within its kind.
	Index int
	// Block is the input block for map tasks (nil for fixed-work maps
	// and reduces).
	Block *dfs.Block

	state    TaskState
	attempts []*Attempt
	// pendingSince is when the task last became schedulable (submission,
	// the map→reduce barrier, or re-queue after a kill); launch measures
	// slot wait from it.
	pendingSince time.Duration

	// outputTracker/outputPM/outputMB record where a completed map's
	// intermediate output lives (the winning attempt's tracker). Map
	// output stays on the mapper's local disk in Hadoop, so losing that
	// node forces the map to re-execute; see reexecuteLostMaps.
	outputTracker *TaskTracker
	outputPM      *cluster.PM
	outputMB      float64
}

// newTasks returns a job's n pending tasks of a kind, allocated as one
// block: they live as long as the job does.
func newTasks(job *Job, kind TaskKind, n int) []*Task {
	if n <= 0 {
		return nil
	}
	block := make([]Task, n)
	tasks := make([]*Task, n)
	for i := range block {
		block[i] = Task{Job: job, Kind: kind, Index: i, state: TaskPending}
		tasks[i] = &block[i]
	}
	return tasks
}

// State returns the task's scheduling state.
func (t *Task) State() TaskState { return t.state }

// Attempts returns all attempts launched so far. The slice is the
// task's own, capped at its length so an append copies: callers must
// only read it.
func (t *Task) Attempts() []*Attempt { return t.attempts[:len(t.attempts):len(t.attempts)] }

// runningAttempts counts attempts still executing.
func (t *Task) runningAttempts() int {
	n := 0
	for _, a := range t.attempts {
		if a.Running() {
			n++
		}
	}
	return n
}

// OutputTracker returns the tracker holding this completed map's
// intermediate output, or nil while the task is not done (or after the
// output node was lost and the task was re-queued). The invariant
// checker uses it to assert that no reduce consumes vanished map
// output.
func (t *Task) OutputTracker() *TaskTracker { return t.outputTracker }

// ID identifies the task within its job.
func (t *Task) ID() string {
	return t.Job.key + "/" + t.Kind.String() + "-" + strconv.Itoa(t.Index)
}

// attemptName builds the name of the task's attempt on node,
// "<ID>@<node>", in one allocation, and returns the task ID as its
// prefix.
func (t *Task) attemptName(node string) (name, id string) {
	var idx [20]byte
	name = t.Job.key + "/" + t.Kind.String() + "-" + string(strconv.AppendInt(idx[:0], int64(t.Index), 10)) + "@" + node
	return name, name[:len(name)-len(node)-1]
}

// Attempt is one execution of a task on a specific tracker.
type Attempt struct {
	// Task is the task being attempted.
	Task *Task
	// Tracker is where the attempt runs.
	Tracker *TaskTracker
	// StartedAt is the simulation time the attempt began.
	StartedAt time.Duration
	// FinishedAt is when the attempt completed, was killed, or lost the
	// speculative race; zero while running.
	FinishedAt time.Duration
	// SlotWait is how long the task waited for this (non-speculative)
	// attempt's slot.
	SlotWait time.Duration

	// consumer is the attempt's pooled resource container, nil once the
	// attempt has ended.
	consumer *attemptConsumer
	serve    *cluster.Consumer // split-architecture storage-side stream
	// progress is the fraction of work reached when the attempt ended;
	// Progress reads it once release has dropped the consumer.
	progress float64
	span     trace.Span
	// Speculative marks backup attempts launched by the straggler
	// detector.
	Speculative bool
	finished    bool
	killed      bool
	// slotHeld is set while the attempt occupies its tracker's slot and
	// the running indexes; releaseSlot clears it.
	slotHeld bool
}

// Running reports whether the attempt is still executing.
func (a *Attempt) Running() bool { return !a.finished && !a.killed }

// release drops an ended attempt's resource consumers so it keeps only
// its record, and retires the compute-side consumer to its JobTracker's
// pool. It runs after the last read of either consumer on every path
// that ends an attempt (completion, kill, lost speculative race,
// relocation), once the consumer no longer runs, and saves the fraction
// of work reached for Progress.
func (a *Attempt) release() {
	if ac := a.consumer; ac != nil {
		a.progress = ac.Progress()
		jt := a.Task.Job.jt
		jt.pool.retire(ac, jt.engine.Fired())
	}
	a.consumer, a.serve = nil, nil
}

// Progress returns the completed fraction in [0, 1]: 1 once finished,
// the fraction reached once killed.
func (a *Attempt) Progress() float64 {
	if a.finished {
		return 1
	}
	if a.consumer == nil {
		return a.progress
	}
	return a.consumer.Progress()
}

// Speed returns the attempt's current progress rate (1 = full speed).
func (a *Attempt) Speed() float64 {
	if a.consumer == nil {
		return 0
	}
	return a.consumer.Speed()
}

// Consumer exposes the underlying resource consumer so that the Phase II
// DRM can observe usage and install caps, and the IPS can kill or weigh
// down interfering attempts. It is nil once the attempt has ended: an
// ended attempt keeps only its record. The JobTracker reuses a retired
// consumer for a later attempt once another engine event has fired, so
// hold the Attempt, not its Consumer, across events.
func (a *Attempt) Consumer() *cluster.Consumer {
	if a.consumer == nil {
		return nil
	}
	return &a.consumer.Consumer
}

// Node returns the node the attempt runs on.
func (a *Attempt) Node() cluster.Node { return a.Tracker.Compute }

// demandAndWork computes an attempt's resource demand vector and
// full-speed work for the given task on the given tracker, based on the
// job spec and current data placement.
func demandAndWork(t *Task, tr *TaskTracker) (demand resource.Vector, work float64, serveDisk float64) {
	spec := t.Job.Spec
	switch t.Kind {
	case MapTask:
		if spec.FixedMapWork > 0 {
			mem := spec.MapMemMB
			if mem <= 0 {
				mem = 200
			}
			return resource.NewVector(1, mem, 0, 0), spec.FixedMapWork + spec.overhead(), 0
		}
		rate := spec.effectiveMapStream()
		cpu := rate * spec.MapCPUPerMB
		if cpu < 0.05 {
			cpu = 0.05
		}
		blockMB := t.Job.blockMB(t)
		spill := rate * spec.ShuffleRatio
		mapMem := spec.MapMemMB
		if spec.InMemory {
			// Spark-style: map output is cached in RAM, not spilled.
			mapMem += blockMB * spec.ShuffleRatio
			spill = 0
		}
		work = blockMB/rate + spec.overhead()
		locality := t.Job.jt.fs.BlockLocality(t.Block, tr.Storage)
		var disk, net float64
		switch {
		case tr.split():
			// Split architecture: input streams from the storage node;
			// the compute node pays CPU plus spill, the storage node
			// serves the read in parallel.
			disk = spill
			net = rate * 0.15 // virtual NIC hop to the storage VM
			if locality == dfs.Remote {
				net += rate
			}
			serveDisk = rate
		case locality == dfs.Remote:
			disk = spill
			net = rate
			serveDisk = 0
		default:
			disk = rate + spill
		}
		return resource.NewVector(cpu, mapMem, disk, net), work, serveDisk

	default: // ReduceTask
		shuffleMB := t.Job.shufflePerReduce()
		rate := spec.effectiveReduceStream()
		cpu := rate * spec.ReduceCPUPerMB
		if cpu < 0.05 {
			cpu = 0.05
		}
		remoteFrac := t.Job.remoteShuffleFraction(tr.Compute)
		outRatio := spec.OutputRatio
		disk := rate * (1 + outRatio)
		// Remote shuffle fetches plus the off-host share of output
		// replication; replicas landing on VMs of the same PM never
		// touch the NIC.
		net := rate*remoteFrac + rate*outRatio*t.Job.jt.fs.OffHostFraction(tr.Compute)
		mem := spec.ReduceMemMB
		if mem <= 0 {
			mem = 300
		}
		if spec.InMemory {
			// Spark-style: shuffle data merges in RAM; only the final
			// output touches the disk.
			disk = rate * outRatio
			mem += shuffleMB
		}
		work = shuffleMB/rate + spec.overhead()
		return resource.NewVector(cpu, mem, disk, net), work, 0
	}
}
