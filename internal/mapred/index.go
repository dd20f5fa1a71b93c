package mapred

import (
	"slices"
	"sort"

	"repro/internal/cluster"
)

// This file is the JobTracker's incremental index layer. Three structures
// replace the full-fleet scans the scale sweep measured superlinear:
//
//   - freeMaps/freeReds: trackers with a free slot of each task type,
//     ordered by (cached machine pressure, registration index).
//     schedule() merge-walks the live sets in place instead of copying
//     and sorting the whole fleet every call. The sets are per task
//     type because they must be: a tracker whose map slots are full but
//     reduce slots are empty would otherwise sit in every map wave's
//     scan as a no-op visit, and with waves sized to the fleet those
//     visits are the O(n^2) the sweep measured. Each set is a blocked
//     sorted list (freeSet: blocks of at most freeBlockMax trackers), so
//     the remove-and-reinsert of every launch, release and pressure
//     refresh moves a bounded number of pointers instead of half the
//     fleet.
//   - runningSorted: every running attempt ordered by consumer name,
//     maintained at launch/release. RunningAttempts() copies it instead
//     of rebuilding and sorting from the attempts map; per-tick readers
//     (the IPS, the straggler scan) walk it in place.
//   - buckets/bucketOrder: running attempts grouped per compute node in
//     node-name order, the exact iteration order the DRM's tick used to
//     reconstruct by sorting every sweep.
//
// Cached pressures are invalidated through cluster watchers: every PM
// backing a tracker notifies the JobTracker when its allocation is
// re-solved (consumer attach/detach, demand, cap or weight change, VM
// arrival or departure, failure), and flushDirty refreshes the affected
// trackers at the next schedule() entry. Pressures never change between
// flushes: trackerPressure reads only the machine's capacity and its
// resident consumers' demands, and every change to those goes through a
// PM re-solve that also moves the machine's ResidentGen. Cap-only and
// weight-only re-solves leave ResidentGen alone, so they cannot
// invalidate a cached pressure, and flushDirty skips any tracker whose
// pressure was computed at its machine's current generation. So the
// cached value at schedule() entry always equals what a fresh
// computation would return — the index changes where the cost goes,
// never what is decided.

// freeLess orders the free-slot index: by cached pressure then
// registration index under CapacityAware (the stable-sort order the old
// code produced each call), by registration index alone otherwise (the
// fixed heartbeat order of vanilla Hadoop).
func (jt *JobTracker) freeLess(a, b *TaskTracker) bool {
	return freeOrder(jt.cfg.CapacityAware, a, b)
}

func freeOrder(byPressure bool, a, b *TaskTracker) bool {
	if byPressure && a.pressure != b.pressure {
		return a.pressure < b.pressure
	}
	return a.idx < b.idx
}

// freeBlockMax is the capacity of one free-set block. An insert or
// remove shifts at most this many trackers, plus a block list
// freeBlockMax times shorter than the set.
const freeBlockMax = 128

// freeSet is one free-slot set in freeLess order, stored as a two-level
// sorted list: a sequence of blocks, each sorted and holding 1 to
// freeBlockMax trackers, every block's entries ordering before the next
// block's. A lookup binary-searches the blocks by their last entry, then
// the one block, so insert and remove cost O(log n + freeBlockMax)
// instead of memmoving half the fleet. A full block splits in half; a
// block that empties, or that a removal leaves small enough to fold into
// a neighbour (the two together holding at most freeBlockMax/2), is
// moved to spare and reused by the next split or by a refill of a
// drained set, so steady-state churn never allocates. Merging keeps
// every pair of adjacent blocks above freeBlockMax/2 entries, bounding
// the block count at 4n/freeBlockMax + 1.
type freeSet struct {
	byPressure bool
	blocks     [][]*TaskTracker
	spare      [][]*TaskTracker // emptied blocks, length 0, capacity freeBlockMax
	n          int              // trackers across all blocks
	// hintB/hintI locate the tracker first or after last returned, if
	// the set has not shifted it since; see after.
	hintB, hintI int
}

func (s *freeSet) less(a, b *TaskTracker) bool { return freeOrder(s.byPressure, a, b) }

// first returns the set's first tracker, or nil when it is empty.
func (s *freeSet) first() *TaskTracker {
	if len(s.blocks) == 0 {
		return nil
	}
	s.hintB, s.hintI = 0, 0
	return s.blocks[0][0]
}

// after returns the first tracker in the set that orders strictly after
// tr's key, or nil. tr itself need not be in the set, so a walk can
// continue past a tracker a launch just removed. When tr still sits
// where first or after last returned it, its successor is the next slot,
// so an undisturbed walk steps in O(1); otherwise after binary-searches.
// Keys are unique, so a hint confirmed by identity is always right.
func (s *freeSet) after(tr *TaskTracker) *TaskTracker {
	bi, i := s.hintB, s.hintI
	if bi < len(s.blocks) && i < len(s.blocks[bi]) && s.blocks[bi][i] == tr {
		if i++; i == len(s.blocks[bi]) {
			bi, i = bi+1, 0
		}
	} else {
		lo, hi := 0, len(s.blocks)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			b := s.blocks[m]
			if s.less(tr, b[len(b)-1]) {
				hi = m
			} else {
				lo = m + 1
			}
		}
		bi = lo
		if bi < len(s.blocks) {
			b := s.blocks[bi]
			i = sort.Search(len(b), func(i int) bool { return s.less(tr, b[i]) })
		}
	}
	if bi == len(s.blocks) {
		return nil
	}
	s.hintB, s.hintI = bi, i
	return s.blocks[bi][i]
}

// locate returns the index of the first block whose last entry does not
// order before tr — the block tr is in or belongs in — or len(blocks)
// when tr orders after every entry.
func (s *freeSet) locate(tr *TaskTracker) int {
	lo, hi := 0, len(s.blocks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		b := s.blocks[m]
		if s.less(b[len(b)-1], tr) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// newBlock returns an empty block, recycled when one is spare.
func (s *freeSet) newBlock() []*TaskTracker {
	if n := len(s.spare); n > 0 {
		b := s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
		return b
	}
	return make([]*TaskTracker, 0, freeBlockMax)
}

// recycle keeps an emptied block for reuse.
func (s *freeSet) recycle(b []*TaskTracker) {
	clear(b)
	s.spare = append(s.spare, b[:0])
}

// insert adds a tracker at its sorted position.
func (s *freeSet) insert(tr *TaskTracker) {
	s.n++
	if len(s.blocks) == 0 {
		s.blocks = append(s.blocks, append(s.newBlock(), tr))
		return
	}
	bi := s.locate(tr)
	if bi == len(s.blocks) {
		bi--
	}
	b := s.blocks[bi]
	if len(b) == freeBlockMax {
		// Split: the upper half moves to a new block right after this
		// one, and tr goes to whichever half its key falls in.
		upper := append(s.newBlock(), b[freeBlockMax/2:]...)
		clear(b[freeBlockMax/2:])
		b = b[:freeBlockMax/2]
		s.blocks[bi] = b
		s.blocks = slices.Insert(s.blocks, bi+1, upper)
		if s.less(b[len(b)-1], tr) {
			bi++
			b = upper
		}
	}
	i := sort.Search(len(b), func(i int) bool { return s.less(tr, b[i]) })
	b = append(b, nil)
	copy(b[i+1:], b[i:])
	b[i] = tr
	s.blocks[bi] = b
}

// remove deletes a tracker. The search runs on the same cached key the
// tracker was inserted under, so it always lands on the exact slot.
func (s *freeSet) remove(tr *TaskTracker) {
	bi := s.locate(tr)
	if bi == len(s.blocks) {
		return // not present; defensive only
	}
	b := s.blocks[bi]
	i := sort.Search(len(b), func(i int) bool { return !s.less(b[i], tr) })
	for i < len(b) && b[i] != tr {
		i++ // equal keys cannot happen (idx is unique); defensive only
	}
	if i == len(b) {
		return
	}
	copy(b[i:], b[i+1:])
	b[len(b)-1] = nil
	b = b[:len(b)-1]
	s.blocks[bi] = b
	s.n--
	if len(b) == 0 {
		s.recycle(b)
		s.blocks = slices.Delete(s.blocks, bi, bi+1)
		return
	}
	if bi+1 < len(s.blocks) && len(b)+len(s.blocks[bi+1]) <= freeBlockMax/2 {
		s.mergeNext(bi)
	}
	if bi > 0 && len(s.blocks[bi-1])+len(s.blocks[bi]) <= freeBlockMax/2 {
		s.mergeNext(bi - 1)
	}
}

// mergeNext folds block i+1 into block i.
func (s *freeSet) mergeNext(i int) {
	next := s.blocks[i+1]
	s.blocks[i] = append(s.blocks[i], next...)
	s.recycle(next)
	s.blocks = slices.Delete(s.blocks, i+1, i+2)
}

// freeInsertHook, when non-nil, observes every free-set insertion. Tests
// set it to prove that schedule()'s live walk (jt.walking) never sees
// one, which is what lets the walk stand in for a snapshot.
var freeInsertHook func(jt *JobTracker, tr *TaskTracker)

// insertFree adds a tracker to one of the free-slot sets.
func (jt *JobTracker) insertFree(s *freeSet, tr *TaskTracker) {
	if freeInsertHook != nil {
		freeInsertHook(jt, tr)
	}
	s.insert(tr)
}

// syncFree reconciles a tracker's free-slot set memberships with its
// slot counters; launch and releaseSlot call it after every change.
func (jt *JobTracker) syncFree(tr *TaskTracker) {
	if freeM := tr.mapRunning < jt.cfg.MapSlots; freeM != tr.inFreeMaps {
		if freeM {
			jt.insertFree(&jt.freeMaps, tr)
		} else {
			jt.freeMaps.remove(tr)
		}
		tr.inFreeMaps = freeM
	}
	if freeR := tr.redsRunning < jt.cfg.ReduceSlots; freeR != tr.inFreeReds {
		if freeR {
			jt.insertFree(&jt.freeReds, tr)
		} else {
			jt.freeReds.remove(tr)
		}
		tr.inFreeReds = freeR
	}
}

// watchPM installs the pressure-invalidation watcher on a PM the first
// time a tracker is backed by it.
func (jt *JobTracker) watchPM(pm *cluster.PM) {
	if pm == nil || jt.watched[pm] {
		return
	}
	jt.watched[pm] = true
	pm.Watch(func() { jt.markDirty(pm) })
}

// markDirty queues a PM whose allocation changed for a pressure refresh.
func (jt *JobTracker) markDirty(pm *cluster.PM) {
	if jt.dirtySet[pm] {
		return
	}
	jt.dirtySet[pm] = true
	jt.dirtyPMs = append(jt.dirtyPMs, pm)
}

// flushDirty refreshes the cached pressure of every tracker on a dirtied
// machine, re-slotting it in the free index under its new key. Trackers
// whose compute VM migrated away are remapped to their current machine
// first. The source PM is dirtied when the VM detaches, but a flush
// between that detach and the attach still finds the VM on the source,
// and the attach dirties only the destination, so trackers seen
// mid-migration are kept on jt.migrating and re-checked at every flush
// until the migration ends. Pressures never change between flushes —
// every input of trackerPressure changes only through a PM re-solve,
// which dirties the machine — so after a flush every cached value equals
// a fresh one. A re-solve for a cap or weight change leaves the
// machine's ResidentGen alone, and a tracker whose pressure was computed
// at the current generation of the machine it is still on keeps it
// untouched.
func (jt *JobTracker) flushDirty() {
	if !jt.cfg.CapacityAware {
		return
	}
	for i := 0; i < len(jt.migrating); i++ {
		tr := jt.migrating[i]
		if cur := tr.Compute.Machine(); cur != tr.pm {
			list := jt.pmTrackers[tr.pm]
			if j := slices.Index(list, tr); j >= 0 {
				jt.pmTrackers[tr.pm] = slices.Delete(list, j, j+1)
			}
			jt.remap(tr, cur)
			jt.refreshPressure(tr)
		}
		if !inMigration(tr) {
			jt.migrating = slices.Delete(jt.migrating, i, i+1)
			i--
		}
	}
	for _, pm := range jt.dirtyPMs {
		delete(jt.dirtySet, pm)
		list := jt.pmTrackers[pm]
		gen := pm.ResidentGen()
		for i := 0; i < len(list); i++ {
			tr := list[i]
			if cur := tr.Compute.Machine(); cur != pm {
				list[i] = list[len(list)-1]
				list[len(list)-1] = nil
				list = list[:len(list)-1]
				i--
				jt.remap(tr, cur)
			} else if tr.pressureGen == gen {
				continue
			}
			jt.refreshPressure(tr)
			if inMigration(tr) && !slices.Contains(jt.migrating, tr) {
				jt.migrating = append(jt.migrating, tr)
			}
		}
		jt.pmTrackers[pm] = list
	}
	jt.dirtyPMs = jt.dirtyPMs[:0]
}

// remap lists a tracker under the machine now backing it; the caller has
// already dropped it from its old machine's list.
func (jt *JobTracker) remap(tr *TaskTracker, cur *cluster.PM) {
	tr.pm = cur
	if cur != nil {
		jt.pmTrackers[cur] = append(jt.pmTrackers[cur], tr)
		jt.watchPM(cur)
	}
}

// inMigration reports whether a tracker's compute VM is being migrated.
func inMigration(tr *TaskTracker) bool {
	vm, ok := tr.Compute.(*cluster.VM)
	return ok && vm.State() == cluster.VMMigrating
}

// refreshPressure recomputes one tracker's cached pressure, keeping the
// free-slot sets ordered: entries are removed under the old key and
// reinserted under the new one.
func (jt *JobTracker) refreshPressure(tr *TaskTracker) {
	if tr.inFreeMaps {
		jt.freeMaps.remove(tr)
	}
	if tr.inFreeReds {
		jt.freeReds.remove(tr)
	}
	jt.probePressure(tr)
	if tr.inFreeMaps {
		jt.insertFree(&jt.freeMaps, tr)
	}
	if tr.inFreeReds {
		jt.insertFree(&jt.freeReds, tr)
	}
}

// probePressure computes a tracker's pressure into its cache, stamped
// with the backing machine's ResidentGen. jt.pressure_probes counts
// exactly these computations — the real work done.
func (jt *JobTracker) probePressure(tr *TaskTracker) {
	if jt.perf != nil {
		jt.perf.C.JTPressureProbes++
	}
	tr.pressure = trackerPressure(tr)
	if tr.pm != nil {
		tr.pressureGen = tr.pm.ResidentGen()
	}
}

// runningInsert adds a just-launched attempt to the name-sorted running
// list and its node bucket.
func (jt *JobTracker) runningInsert(a *Attempt) {
	name := a.consumer.Name
	i := sort.Search(len(jt.runningSorted), func(i int) bool {
		return jt.runningSorted[i].consumer.Name >= name
	})
	jt.runningSorted = append(jt.runningSorted, nil)
	copy(jt.runningSorted[i+1:], jt.runningSorted[i:])
	jt.runningSorted[i] = a

	node := a.Tracker.Compute
	b, ok := jt.buckets[node]
	if !ok {
		b = &nodeBucket{node: node, name: node.Name()}
		jt.buckets[node] = b
		j := sort.Search(len(jt.bucketOrder), func(j int) bool {
			return jt.bucketOrder[j].name >= b.name
		})
		jt.bucketOrder = append(jt.bucketOrder, nil)
		copy(jt.bucketOrder[j+1:], jt.bucketOrder[j:])
		jt.bucketOrder[j] = b
	}
	j := sort.Search(len(b.attempts), func(j int) bool {
		return b.attempts[j].consumer.Name >= name
	})
	b.attempts = append(b.attempts, nil)
	copy(b.attempts[j+1:], b.attempts[j:])
	b.attempts[j] = a
}

// runningRemove drops a finished or killed attempt from the running list
// and its node bucket. Emptied buckets stay registered (skipped by
// iteration) so node churn never reshuffles bucketOrder.
func (jt *JobTracker) runningRemove(a *Attempt) {
	name := a.consumer.Name
	i := sort.Search(len(jt.runningSorted), func(i int) bool {
		return jt.runningSorted[i].consumer.Name >= name
	})
	for i < len(jt.runningSorted) && jt.runningSorted[i] != a {
		i++
	}
	if i < len(jt.runningSorted) {
		jt.runningSorted = append(jt.runningSorted[:i], jt.runningSorted[i+1:]...)
	}
	if b, ok := jt.buckets[a.Tracker.Compute]; ok {
		j := sort.Search(len(b.attempts), func(j int) bool {
			return b.attempts[j].consumer.Name >= name
		})
		for j < len(b.attempts) && b.attempts[j] != a {
			j++
		}
		if j < len(b.attempts) {
			b.attempts = append(b.attempts[:j], b.attempts[j+1:]...)
		}
	}
}

// RunningCount returns the number of attempts currently executing,
// without materializing the list.
func (jt *JobTracker) RunningCount() int { return len(jt.runningSorted) }

// EachNodeAttempts visits every compute node with running attempts in
// node-name order, passing the attempts on it ordered by consumer name —
// the grouping and order the Phase II DRM's sweep previously rebuilt from
// scratch each tick. The callback must not launch, kill, or relocate
// attempts; adjusting demands, caps, and weights is safe.
func (jt *JobTracker) EachNodeAttempts(fn func(node cluster.Node, attempts []*Attempt)) {
	for _, b := range jt.bucketOrder {
		if len(b.attempts) > 0 {
			fn(b.node, b.attempts)
		}
	}
}

// attemptsOn snapshots the running attempts of one tracker in consumer-
// name order, for the failure path that kills them (killing mutates the
// bucket, so iteration needs a stable copy). The returned slice is reused
// across calls.
func (jt *JobTracker) attemptsOn(tr *TaskTracker) []*Attempt {
	out := jt.runningSnap[:0]
	if b, ok := jt.buckets[tr.Compute]; ok {
		for _, a := range b.attempts {
			if a.Tracker == tr {
				out = append(out, a)
			}
		}
	}
	jt.runningSnap = out
	return out
}

// setTaskState moves a task between scheduling states, maintaining the
// per-job pending counters and the gate-aware schedulable totals that let
// schedule() prove "no assignable work" in O(1).
func (jt *JobTracker) setTaskState(t *Task, s TaskState) {
	old := t.state
	if old == s {
		return
	}
	t.state = s
	job := t.Job
	if t.Kind == MapTask {
		if old == TaskPending {
			job.pendingMaps--
			if job.state == JobMapPhase {
				jt.schedulableMaps--
			}
		}
		if s == TaskPending {
			job.pendingMaps++
			if job.state == JobMapPhase {
				jt.schedulableMaps++
			}
		}
		return
	}
	if old == TaskPending {
		job.pendingReds--
		if job.state == JobReducePhase {
			jt.schedulableReds--
		}
	}
	if s == TaskPending {
		job.pendingReds++
		if job.state == JobReducePhase {
			jt.schedulableReds++
		}
	}
}

// setJobState moves a job between phases, shifting its pending tasks'
// contribution between the schedulable totals as the phase gates open and
// close (maps schedule only in JobMapPhase, reduces only in
// JobReducePhase — the same gates pendingTask and hasPending enforce).
func (jt *JobTracker) setJobState(job *Job, s JobState) {
	switch job.state {
	case JobMapPhase:
		jt.schedulableMaps -= job.pendingMaps
	case JobReducePhase:
		jt.schedulableReds -= job.pendingReds
	}
	job.state = s
	switch s {
	case JobMapPhase:
		jt.schedulableMaps += job.pendingMaps
	case JobReducePhase:
		jt.schedulableReds += job.pendingReds
	}
}

// removeActiveJob drops a completed job from the submission-ordered
// active list.
func (jt *JobTracker) removeActiveJob(job *Job) {
	for i, j := range jt.activeJobs {
		if j == job {
			jt.activeJobs = append(jt.activeJobs[:i], jt.activeJobs[i+1:]...)
			return
		}
	}
}
