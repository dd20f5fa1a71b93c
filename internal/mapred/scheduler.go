package mapred

import (
	"repro/internal/dfs"
	"repro/internal/resource"
)

// Scheduler picks the next task for a free slot. Implementations mirror
// the two Hadoop schedulers used in the paper: plain FIFO (the default
// MapReduce scheduler of Figure 8(d)'s baseline) and the Fair Scheduler
// the testbed runs.
type Scheduler interface {
	// Name identifies the policy.
	Name() string
	// NextTask returns a pending task of the kind for the tracker, or
	// nil when nothing is assignable.
	NextTask(jt *JobTracker, tr *TaskTracker, kind TaskKind) *Task
}

// FIFO serves jobs strictly in submission order.
type FIFO struct{}

var _ Scheduler = FIFO{}

// Name returns "fifo".
func (FIFO) Name() string { return "fifo" }

// NextTask returns the first pending task of the oldest job that has one:
// the first job on the kind's pending-job list, which holds exactly the
// active jobs with a schedulable task of the kind, in submission order.
func (FIFO) NextTask(jt *JobTracker, tr *TaskTracker, kind TaskKind) *Task {
	if jobs := jt.pendingJobs(kind); len(jobs) > 0 {
		return jobs[0].pendingTask(kind, tr)
	}
	return nil
}

// Fair approximates the Hadoop Fair Scheduler: the job furthest below
// its fair share of the slots is served first.
type Fair struct{}

var _ Scheduler = Fair{}

// Name returns "fair".
func (Fair) Name() string { return "fair" }

// NextTask picks the most under-served job with pending work: the one
// with the fewest running tasks, the earliest submitted on ties.
//
// That is the rule "largest deficit share − running, the first on ties",
// with every job's share the same float, slots/active jobs, since all
// jobs weigh the same. Each subtraction rounds by at most half an ulp of
// its result, at most 1/4 while |share − r| < 2^52, so two integer
// counts r1 < r2 give deficits at least 1/2 apart: share − r1 >
// share − r2. The deficit strictly decreases in r, so the largest
// deficit falls on the same job as the smallest count, bit for bit.
func (Fair) NextTask(jt *JobTracker, tr *TaskTracker, kind TaskKind) *Task {
	var best *Job
	for _, j := range jt.pendingJobs(kind) {
		if best == nil || j.running < best.running {
			best = j
		}
	}
	if best == nil {
		return nil
	}
	return best.pendingTask(kind, tr)
}

// LocalityGreedy serves whichever job can run a node-local map on the
// requesting tracker, falling back to submission order when none can —
// a delay-scheduling-flavoured alternative that trades fairness for
// data-local reads.
type LocalityGreedy struct{}

var _ Scheduler = LocalityGreedy{}

// Name returns "locality-greedy".
func (LocalityGreedy) Name() string { return "locality-greedy" }

// NextTask prefers, across the jobs with pending work in submission
// order, the first task whose input block is node-local to the tracker;
// reduces (which have no input block) fall back to FIFO order.
func (LocalityGreedy) NextTask(jt *JobTracker, tr *TaskTracker, kind TaskKind) *Task {
	var fallback *Task
	for _, j := range jt.pendingJobs(kind) {
		t := j.pendingTask(kind, tr)
		if kind == MapTask && t.Block != nil &&
			jt.fs.BlockLocality(t.Block, tr.Storage) == dfs.NodeLocal {
			return t
		}
		if fallback == nil {
			fallback = t
		}
	}
	return fallback
}

// JobDriven serves the job closest to completion first, after the
// job-driven slot assignment of Lee & Lin ("Hybrid Job-driven
// Scheduling for Virtual MapReduce Clusters"): draining the smallest
// remainder frees its slots and memory footprint for the jobs queued
// behind it, shrinking the number of jobs resident at once.
type JobDriven struct{}

var _ Scheduler = JobDriven{}

// Name returns "job-driven".
func (JobDriven) Name() string { return "job-driven" }

// NextTask picks the schedulable job with the fewest unscheduled tasks
// left, ties broken by submission order.
func (JobDriven) NextTask(jt *JobTracker, tr *TaskTracker, kind TaskKind) *Task {
	var best *Job
	bestLeft := 0
	for _, j := range jt.pendingJobs(kind) {
		left := j.pendingMaps + j.pendingReds
		if best == nil || left < bestLeft {
			best = j
			bestLeft = left
		}
	}
	if best == nil {
		return nil
	}
	return best.pendingTask(kind, tr)
}

// demandServe is the storage-side demand of a split-architecture input
// stream.
func demandServe(diskRate float64) resource.Vector {
	return resource.NewVector(0.03, 32, diskRate, diskRate*0.15)
}
