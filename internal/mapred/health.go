package mapred

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the JobTracker's failure detector and recovery machinery:
// heartbeat-based loss detection, per-tracker failure counting with
// blacklist + exponential-backoff rejoin, and Hadoop's map-output
// re-execution semantics (a reducer that can no longer fetch a completed
// map's output forces that map to run again).

// ensureHealthTicker starts the heartbeat scanner while jobs are active;
// like the speculation ticker it stops itself when the queue drains so
// simulations can run the event queue dry.
func (jt *JobTracker) ensureHealthTicker() {
	if jt.healthTick != nil && !jt.healthTick.Stopped() {
		return
	}
	jt.healthTick = sim.NewTicker(jt.engine, jt.cfg.HeartbeatInterval, func(time.Duration) {
		if len(jt.activeJobs) == 0 {
			jt.healthTick.Stop()
			return
		}
		jt.checkTrackerHealth()
		if !jt.anyViableTracker() {
			// Every worker is permanently gone — a destroyed VM never
			// comes back, so pending jobs can never finish. Park the
			// detector so the simulation runs its event queue dry and the
			// caller sees a clean stall instead of time ticking forever.
			if jt.tracer != nil {
				jt.tracer.Instant("jobtracker", "mapred", "fleet-dead",
					trace.F("pending_jobs", float64(len(jt.Jobs()))))
			}
			jt.healthTick.Stop()
		}
	})
}

// anyViableTracker reports whether at least one tracker could still run
// work, now or after a repair: its nodes must exist (destroyed VMs leave
// nil machines behind, which is permanent) and it must not be
// administratively disabled. Failed-but-repairable machines, hangs and
// blacklist hold-offs all count as viable — they can recover.
func (jt *JobTracker) anyViableTracker() bool {
	for _, tr := range jt.trackers {
		if !tr.disabled && tr.Compute.Machine() != nil && tr.Storage.Machine() != nil {
			return true
		}
	}
	return false
}

// checkTrackerHealth is one heartbeat sweep: responsive trackers renew
// their lease (and rejoin once any blacklist hold-off expires), silent
// ones are declared lost after TrackerTimeout.
func (jt *JobTracker) checkTrackerHealth() {
	now := jt.engine.Now()
	for _, tr := range jt.trackers {
		if tr.lost {
			if tr.responsive() && now >= tr.blacklistUntil {
				jt.restoreTracker(tr)
			}
			continue
		}
		if tr.responsive() {
			tr.lastSeen = now
			continue
		}
		if now-tr.lastSeen >= jt.cfg.TrackerTimeout {
			jt.trackerLost(tr, "heartbeat-timeout")
		}
	}
}

// OutputUnfetchable explains why a completed map's output on this
// tracker cannot serve shuffle fetches right now, or returns "" when it
// can. Map output lives on the mapper's local disk, so it is gone with
// the node and unreachable across a partition. The reducer-side fetch
// gate and the safety-invariant checker share this predicate so the
// recovery path and its watchdog cannot drift apart.
func (tr *TaskTracker) OutputUnfetchable() string {
	m := tr.Compute.Machine()
	switch {
	case m == nil:
		return "node destroyed"
	case m.Failed():
		return "machine failed"
	case m.Isolated():
		return "network partition"
	case tr.lost:
		return "tracker lost without map re-execution"
	}
	return ""
}

// shuffleFetchFailed is the reducer-side fetch-failure detector, checked
// at the moment a reduce attempt would complete: if any map output it
// shuffled from sits on an unreachable node, the completion is a lie —
// the data was never fetchable. The attempt is discarded and re-queued
// and the affected maps are re-executed, which is Hadoop's "too many
// fetch failures" escalation compressed to the simulator's granularity.
// This covers the window between a failure or partition and the
// heartbeat detector noticing it; once the detector fires, trackersLost
// handles the same outputs. Returns whether the completion was vetoed.
func (jt *JobTracker) shuffleFetchFailed(a *Attempt) bool {
	if jt.cfg.DisableMapReexecution {
		// Fault-injection hook: with re-execution broken the whole fetch
		// machinery is off, so the invariant checker sees the raw damage.
		return false
	}
	var bad []*TaskTracker
	seen := make(map[*TaskTracker]bool)
	for _, m := range a.Task.Job.maps {
		if m.state != TaskDone || m.outputTracker == nil || seen[m.outputTracker] {
			continue
		}
		if m.outputTracker.OutputUnfetchable() == "" {
			continue
		}
		seen[m.outputTracker] = true
		bad = append(bad, m.outputTracker)
	}
	if len(bad) == 0 {
		return false
	}
	jt.mFetchFailures.Inc()
	names := make([]string, len(bad))
	for i, tr := range bad {
		names[i] = tr.Compute.Name()
	}
	if jt.tracer != nil {
		jt.tracer.Instant(a.Tracker.Compute.Name(), "mapred", "fetch-failure",
			trace.S("reduce", a.Task.ID()),
			trace.F("unreachable_sources", float64(len(bad))))
	}
	if jt.auditLog != nil {
		jt.auditLog.Add("mapred", "fetch-failure", a.Task.ID(),
			"discard the reduce completion, re-execute the source maps",
			fmt.Sprintf("shuffle source(s) %v unreachable at completion (%s)",
				names, bad[0].OutputUnfetchable()))
	}
	// Re-queue the stranded outputs first: the job rolls back to the map
	// phase, so the re-queued reduce below cannot relaunch until the
	// barrier is re-met. The rollback kills this attempt too (it is still
	// formally running); the fallback covers reduce-less edge ordering.
	for _, tr := range bad {
		jt.reexecuteLostMaps(tr)
	}
	if !a.killed {
		jt.attemptKilled(a)
	}
	return true
}

// trackerLost declares a single tracker dead; see trackersLost.
func (jt *JobTracker) trackerLost(tr *TaskTracker, cause string) {
	jt.trackersLost([]*TaskTracker{tr}, cause)
}

// trackersLost declares a batch of trackers dead at once: their running
// attempts are killed and re-queued, completed map outputs on them are
// re-executed, and each tracker's failure count advances toward the
// blacklist threshold. Correlated losses (a PM taking several trackers
// down) must be one batch, so the re-queue triggered by the first kill
// cannot land work on a sibling that is about to be declared dead too.
// Returns how many trackers were newly lost.
func (jt *JobTracker) trackersLost(batch []*TaskTracker, cause string) int {
	now := jt.engine.Now()
	var lost []*TaskTracker
	for _, tr := range batch {
		if tr == nil || tr.lost {
			continue
		}
		lost = append(lost, tr)
		tr.lost = true
		tr.blacklistUntil = now
		blacklisted := false
		trCause := cause
		if tr.isolatedOnly() {
			// A network partition, not a node fault: the tracker is
			// healthy and rejoins as soon as the partition heals. Charging
			// the failure count here would blacklist innocent machines
			// after every split.
			trCause = "network-partition"
		} else {
			tr.failures++
			if over := tr.failures - jt.cfg.TrackerFailureLimit; over >= 0 {
				// Repeat offenders sit out exponentially longer, capped so
				// the shift cannot overflow.
				if over > 6 {
					over = 6
				}
				tr.blacklistUntil = now + jt.cfg.BlacklistBackoff<<uint(over)
				blacklisted = true
				jt.mTrackersBlacklisted.Inc()
			}
		}
		jt.mTrackersLost.Inc()
		if jt.tracer != nil {
			args := []trace.Arg{
				trace.S("cause", trCause),
				trace.F("failures", float64(tr.failures)),
			}
			if blacklisted {
				args = append(args, trace.F("blacklist_sec", (tr.blacklistUntil-now).Seconds()))
			}
			jt.tracer.Instant(tr.Compute.Name(), "mapred", "tracker-lost", args...)
		}
		if jt.auditLog != nil {
			decision := "rejoin on next responsive heartbeat"
			reason := fmt.Sprintf("%s; failure %d of %d tolerated", trCause, tr.failures, jt.cfg.TrackerFailureLimit)
			if blacklisted {
				decision = fmt.Sprintf("blacklist for %v", tr.blacklistUntil-now)
			}
			if trCause == "network-partition" {
				decision = "rejoin when the partition heals"
				reason = "partition isolated the node; no failure charged against it"
			}
			jt.auditLog.Add("mapred", "tracker-lost", tr.Compute.Name(), decision, reason)
		}
	}
	if len(lost) == 0 {
		return 0
	}
	// Every tracker in the batch is marked before any kill runs: the
	// schedule() calls inside attemptKilled skip all of them. attemptsOn
	// snapshots the tracker's node bucket in consumer-name order — the
	// same order the old full RunningAttempts scan visited the tracker's
	// attempts in, without materializing the fleet per lost tracker.
	for _, tr := range lost {
		for _, a := range jt.attemptsOn(tr) {
			if a.consumer != nil && a.consumer.Running() {
				a.consumer.Kill() // fires attemptKilled via OnKilled
			} else {
				jt.attemptKilled(a)
			}
		}
		jt.reexecuteLostMaps(tr)
	}
	jt.schedule()
	return len(lost)
}

// restoreTracker returns a lost-but-responsive tracker to service.
func (jt *JobTracker) restoreTracker(tr *TaskTracker) {
	tr.lost = false
	tr.lastSeen = jt.engine.Now()
	jt.mTrackersRestored.Inc()
	if jt.tracer != nil {
		jt.tracer.Instant(tr.Compute.Name(), "mapred", "tracker-restored",
			trace.F("failures", float64(tr.failures)))
	}
	jt.auditLog.Add("mapred", "tracker-restored", tr.Compute.Name(), "rejoin",
		fmt.Sprintf("responsive again after %d failure(s), blacklist hold-off expired", tr.failures))
	jt.schedule()
}

// reexecuteLostMaps re-queues every completed map task whose output
// lived on the lost tracker, for jobs that still have reduces to feed —
// Hadoop's semantics: map output is stored on the mapper's local disk,
// not in HDFS, so losing the node loses the output and the reducers'
// fetches force a re-run. Jobs already in the reduce phase roll back to
// the map phase. Returns the number of re-queued maps.
func (jt *JobTracker) reexecuteLostMaps(tr *TaskTracker) int {
	if jt.cfg.DisableMapReexecution {
		// Fault-injection hook: leave the lost outputs dangling so the
		// invariant checker can prove it notices.
		return 0
	}
	now := jt.engine.Now()
	total := 0
	for _, job := range jt.activeJobs {
		if len(job.reduces) == 0 {
			// Map-only jobs write straight to the DFS; nothing to redo.
			continue
		}
		n := 0
		for _, t := range job.maps {
			if t.state != TaskDone || t.outputTracker != tr {
				continue
			}
			job.uncountMapOutput(t)
			jt.setTaskState(t, TaskPending)
			t.pendingSince = now
			job.mapsRemaining++
			n++
		}
		if n == 0 {
			continue
		}
		total += n
		rolledBack := false
		if job.state == JobReducePhase {
			jt.rollbackToMapPhase(job)
			rolledBack = true
		}
		if jt.auditLog != nil {
			decision := fmt.Sprintf("re-queue %d completed map(s)", n)
			if rolledBack {
				decision += ", roll job back to map phase"
			}
			jt.auditLog.Add("mapred", "reexecute-maps",
				job.key, decision,
				fmt.Sprintf("map outputs lived on lost tracker %s; reducers can no longer fetch them", tr.Compute.Name()))
		}
		if jt.tracer != nil {
			jt.tracer.Instant("job:"+job.key,
				"job", "maps-reexecuted",
				trace.S("tracker", tr.Compute.Name()),
				trace.F("count", float64(n)))
		}
	}
	if total > 0 {
		jt.mMapsReexecuted.Add(float64(total))
	}
	return total
}

// rollbackToMapPhase returns a reduce-phase job to the map phase after
// map output loss: running reduce attempts are killed (they can no
// longer fetch) and re-queued behind the restored map barrier.
func (jt *JobTracker) rollbackToMapPhase(job *Job) {
	// Phase flips first so the kills below cannot relaunch reduces.
	jt.setJobState(job, JobMapPhase)
	job.mapsDoneAt = 0
	job.phaseSpan.End(trace.S("outcome", "rolled-back"))
	if jt.tracer != nil {
		job.phaseSpan = jt.tracer.Begin(
			"job:"+job.key, "job", "map-phase",
			trace.S("cause", "map-output-lost"))
	}
	for _, t := range job.reduces {
		for _, a := range t.attempts {
			if !a.Running() {
				continue
			}
			if a.consumer != nil && a.consumer.Running() {
				a.consumer.Kill()
			} else {
				jt.attemptKilled(a)
			}
		}
	}
}
