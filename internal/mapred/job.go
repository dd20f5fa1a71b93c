package mapred

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/trace"
)

// JobState is a job's lifecycle state.
type JobState int

// Job states.
const (
	JobMapPhase JobState = iota + 1
	JobReducePhase
	JobDone
)

// Job is a submitted MapReduce job.
type Job struct {
	// ID is the submission sequence number.
	ID int
	// Spec is the workload description.
	Spec JobSpec
	// Weight is the job's Fair-scheduler share weight (default 1).
	Weight float64
	// OnComplete fires when the last reduce (or last map of a map-only
	// job) finishes.
	OnComplete func(*Job)

	jt *JobTracker
	// key is the job's "<name>-<id>" label, built once at Submit; task
	// IDs, trace tracks and audit subjects all start from it.
	key       string
	inputName string
	maps      []*Task
	reduces   []*Task
	state     JobState

	submittedAt   time.Duration
	mapsDoneAt    time.Duration
	doneAt        time.Duration
	mapsRemaining int
	redsRemaining int
	// pendingMaps/pendingReds count tasks in TaskPending, maintained by
	// JobTracker.setTaskState; together with the phase gate they answer
	// hasPending in O(1) and feed the scheduler's schedulable totals.
	pendingMaps int
	pendingReds int

	// mapOutputMB records, per physical machine, how much map output
	// lives there; the shuffle model charges network for the fraction a
	// reduce task cannot fetch host-locally.
	mapOutputMB map[*cluster.PM]float64
	totalOutput float64

	// rateStats accumulates the average progress rate of completed
	// attempts per kind; the straggler detector compares running
	// attempts against this history.
	rateStats map[TaskKind]*rateStat

	span      trace.Span // whole-job span
	phaseSpan trace.Span // current phase (map, then reduce)
}

type rateStat struct {
	count int
	sum   float64
}

func (j *Job) recordAttemptRate(kind TaskKind, rate float64) {
	if rate <= 0 {
		return
	}
	st, ok := j.rateStats[kind]
	if !ok {
		st = &rateStat{}
		j.rateStats[kind] = st
	}
	st.count++
	st.sum += rate
}

// historicalRate is the mean progress rate of completed attempts of the
// kind; ok is false before any completion.
func (j *Job) historicalRate(kind TaskKind) (float64, bool) {
	st, ok := j.rateStats[kind]
	if !ok || st.count == 0 {
		return 0, false
	}
	return st.sum / float64(st.count), true
}

// State returns the job's phase.
func (j *Job) State() JobState { return j.state }

// Done reports whether the job has finished.
func (j *Job) Done() bool { return j.state == JobDone }

// Maps returns the job's map tasks.
func (j *Job) Maps() []*Task {
	out := make([]*Task, len(j.maps))
	copy(out, j.maps)
	return out
}

// Reduces returns the job's reduce tasks.
func (j *Job) Reduces() []*Task {
	out := make([]*Task, len(j.reduces))
	copy(out, j.reduces)
	return out
}

// JCT returns the job completion time; zero until the job is done.
func (j *Job) JCT() time.Duration {
	if j.state != JobDone {
		return 0
	}
	return j.doneAt - j.submittedAt
}

// MapPhase returns the duration from submission to the last map
// completion; zero until the map phase ends.
func (j *Job) MapPhase() time.Duration {
	if j.mapsDoneAt == 0 {
		return 0
	}
	return j.mapsDoneAt - j.submittedAt
}

// ReducePhase returns the duration from the last map to job completion;
// zero until done. Map-only jobs report zero.
func (j *Job) ReducePhase() time.Duration {
	if j.state != JobDone || len(j.reduces) == 0 {
		return 0
	}
	return j.doneAt - j.mapsDoneAt
}

// pendingTask returns a schedulable task of the kind, honouring the map
// barrier before reduces, with locality preference for maps: node-local
// first, then host-local, then any.
func (j *Job) pendingTask(kind TaskKind, tr *TaskTracker) *Task {
	if kind == ReduceTask {
		if j.state != JobReducePhase {
			return nil
		}
		for _, t := range j.reduces {
			if t.state == TaskPending {
				return t
			}
		}
		return nil
	}
	if j.state != JobMapPhase {
		return nil
	}
	var hostLocal, any *Task
	for _, t := range j.maps {
		if t.state != TaskPending {
			continue
		}
		if t.Block == nil {
			if any == nil {
				any = t
			}
			continue
		}
		switch j.jt.fs.BlockLocality(t.Block, tr.Storage) {
		case dfs.NodeLocal:
			return t
		case dfs.HostLocal:
			if hostLocal == nil {
				hostLocal = t
			}
		default:
			if any == nil {
				any = t
			}
		}
	}
	if hostLocal != nil {
		return hostLocal
	}
	return any
}

// hasPending reports whether the job has unscheduled tasks of the kind,
// from the maintained pending counters — no task-list scan.
func (j *Job) hasPending(kind TaskKind) bool {
	if kind == ReduceTask {
		return j.state == JobReducePhase && j.pendingReds > 0
	}
	return j.state == JobMapPhase && j.pendingMaps > 0
}

// runningTasks counts tasks currently in the running state.
func (j *Job) runningTasks() int {
	n := 0
	for _, t := range j.maps {
		if t.state == TaskRunning {
			n++
		}
	}
	for _, t := range j.reduces {
		if t.state == TaskRunning {
			n++
		}
	}
	return n
}

// blockMB is the input size of a map task's block.
func (j *Job) blockMB(t *Task) float64 {
	if t.Block != nil {
		return t.Block.SizeMB
	}
	if len(j.maps) == 0 {
		return 0
	}
	return j.Spec.InputMB / float64(len(j.maps))
}

// shufflePerReduce is the shuffle volume each reduce task consumes.
func (j *Job) shufflePerReduce() float64 {
	if len(j.reduces) == 0 {
		return 0
	}
	return j.totalOutput / float64(len(j.reduces))
}

// remoteShuffleFraction is the fraction of map output that is not on the
// reduce node's physical machine and must cross the network.
func (j *Job) remoteShuffleFraction(n cluster.Node) float64 {
	if j.totalOutput <= 0 {
		return 0
	}
	local := j.mapOutputMB[n.Machine()]
	f := 1 - local/j.totalOutput
	if f < 0 {
		return 0
	}
	return f
}

// recordMapOutput accounts a finished map attempt's output on the machine
// it ran on.
func (j *Job) recordMapOutput(t *Task, tr *TaskTracker) {
	out := j.blockMB(t) * j.Spec.ShuffleRatio
	if j.Spec.FixedMapWork > 0 {
		out = 1 // trivial intermediate data
	}
	pm := tr.Compute.Machine()
	j.mapOutputMB[pm] += out
	j.totalOutput += out
	t.outputTracker = tr
	t.outputPM = pm
	t.outputMB = out
}

// uncountMapOutput reverses recordMapOutput when a completed map's
// output node is lost and the task returns to the pending queue.
func (j *Job) uncountMapOutput(t *Task) {
	if t.outputTracker == nil {
		return
	}
	if v := j.mapOutputMB[t.outputPM] - t.outputMB; v > 1e-9 {
		j.mapOutputMB[t.outputPM] = v
	} else {
		delete(j.mapOutputMB, t.outputPM)
	}
	j.totalOutput -= t.outputMB
	if j.totalOutput < 0 {
		j.totalOutput = 0
	}
	t.outputTracker = nil
	t.outputPM = nil
	t.outputMB = 0
}
