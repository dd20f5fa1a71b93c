package mapred

import (
	"slices"
	"sort"

	"repro/internal/cluster"
)

// This file is the JobTracker's incremental index layer. Four structures
// replace the scans over the fleet, the running attempts and the job
// queue that grew with the cluster:
//
//   - blockList: one sorted list stored as blocks of at most blockMax
//     entries, so an insert or remove moves a bounded number of
//     entries instead of half the list. It holds the free sets' pressure
//     levels and the running list below; it is the only block-list code.
//   - freeMaps/freeReds (freeset.go): the registration indexes of the
//     trackers with a free slot of each task type, grouped into one
//     level per distinct cached machine pressure, levels in pressure
//     order; a level holds its ids inline, as a sorted []int32 or as a
//     fleet-wide bitset, whichever is smallest. A pressure refresh
//     moves a tracker from its old level to its new one — at the
//     scale-up point, where about three levels hold ten thousand
//     trackers, that is two bit flips. schedule() walks the live sets
//     in (pressure, index) order with first/after instead of copying
//     and sorting the whole fleet every call. The sets are per task
//     type because they must be: a tracker whose map slots are full but
//     reduce slots are empty would otherwise sit in every map wave's
//     scan as a no-op visit, and with waves sized to the fleet those
//     visits are the O(n^2) the sweep measured.
//   - running: every running attempt ordered by consumer name, a new
//     attempt ahead of any with an equal name, maintained at
//     launch/release. RunningAttempts() copies it; per-tick readers (the
//     IPS, the straggler scan) walk it in place. buckets/bucketOrder
//     group the same attempts per compute node in node-name order, the
//     exact iteration order the DRM's tick used to reconstruct by
//     sorting every sweep.
//   - pending: for each task kind, the active jobs with a schedulable
//     task of that kind, in submission order, kept by setTaskState,
//     setJobState and Submit beside the pending, running and
//     schedulable counters. Every built-in scheduler walks this list
//     instead of every active job: a probe at the scale-up point finds
//     about one job with pending work among hundreds active.
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

// runningLess orders the running list by consumer name.
func runningLess(a, b *Attempt) bool { return a.consumer.Name < b.consumer.Name }

// blockMax is the capacity of one block of a blockList. An insert or
// remove shifts at most this many entries, plus a block list blockMax
// times shorter than the list.
const blockMax = 128

// blockList is a sorted list stored in two levels: a sequence of blocks,
// each sorted and holding 1 to blockMax entries, every block's entries
// ordering before or level with the next block's. A lookup
// binary-searches the blocks by their last entry, then the one block, so
// insert and remove cost O(log n + blockMax) instead of memmoving half
// the list. A full block splits in half; a block that empties, or that a
// removal leaves small enough to fold into a neighbour (the two together
// holding at most blockMax/2), is moved to spare and reused by the next
// split or by a refill of a drained list, so steady-state churn never
// allocates. Merging keeps every pair of adjacent blocks above blockMax/2
// entries, bounding the block count at 4n/blockMax + 1.
//
// Equal keys are allowed: insert puts an entry before every entry with
// an equal key, and remove finds its entry by identity among them. A
// free set's level list never holds equal keys (one level per
// pressure); the running list may, as two attempts of one task on one
// node share a name.
type blockList[T comparable] struct {
	less   func(a, b T) bool
	blocks [][]T
	spare  [][]T // emptied blocks, length 0, capacity blockMax
	n      int   // entries across all blocks
}

// newBlockList returns an empty list ordered by less.
func newBlockList[T comparable](less func(a, b T) bool) blockList[T] {
	return blockList[T]{less: less}
}

// len returns the number of entries.
func (s *blockList[T]) len() int { return s.n }

// each calls fn on every entry in order. fn must not change the list.
func (s *blockList[T]) each(fn func(x T)) {
	for _, b := range s.blocks {
		for _, x := range b {
			fn(x)
		}
	}
}

// appendTo appends the entries to dst in order.
func (s *blockList[T]) appendTo(dst []T) []T {
	for _, b := range s.blocks {
		dst = append(dst, b...)
	}
	return dst
}

// lowerBound returns the index of the first entry of b that does not
// order before x.
func (s *blockList[T]) lowerBound(b []T, x T) int {
	less := s.less
	lo, hi := 0, len(b)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if less(b[m], x) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// locate returns the index of the first block whose last entry does not
// order before x — the first block x's key can sit in — or len(blocks)
// when x orders after every entry.
func (s *blockList[T]) locate(x T) int {
	less, blocks := s.less, s.blocks
	lo, hi := 0, len(blocks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		b := blocks[m]
		if less(b[len(b)-1], x) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// newBlock returns an empty block, recycled when one is spare.
func (s *blockList[T]) newBlock() []T {
	if n := len(s.spare); n > 0 {
		b := s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
		return b
	}
	return make([]T, 0, blockMax)
}

// recycle keeps an emptied block for reuse.
func (s *blockList[T]) recycle(b []T) {
	clear(b)
	s.spare = append(s.spare, b[:0])
}

// insert adds x before every entry with an equal key.
func (s *blockList[T]) insert(x T) {
	bi, i := s.locate(x), 0
	if bi == len(s.blocks) {
		if bi > 0 {
			bi--
			i = len(s.blocks[bi])
		}
	} else {
		i = s.lowerBound(s.blocks[bi], x)
	}
	s.insertAt(bi, i, x)
}

// insertAt adds x as entry i of block bi (i may be the block's length),
// or as the only entry of an empty list. The caller keeps the order.
func (s *blockList[T]) insertAt(bi, i int, x T) {
	s.n++
	if len(s.blocks) == 0 {
		s.blocks = append(s.blocks, append(s.newBlock(), x))
		return
	}
	b := s.blocks[bi]
	if len(b) == blockMax {
		// Split: the upper half moves to a new block right after this
		// one, and x goes to whichever half its position falls in.
		upper := append(s.newBlock(), b[blockMax/2:]...)
		clear(b[blockMax/2:])
		b = b[:blockMax/2]
		s.blocks[bi] = b
		s.blocks = slices.Insert(s.blocks, bi+1, upper)
		if i >= blockMax/2 {
			bi, i, b = bi+1, i-blockMax/2, upper
		}
	}
	b = append(b, x)
	copy(b[i+1:], b[i:])
	b[i] = x
	s.blocks[bi] = b
}

// remove deletes x, found by identity among the entries with its key,
// which may run on across blocks. The search uses the key x was inserted
// under, so the caller must not have changed it.
func (s *blockList[T]) remove(x T) {
	for bi := s.locate(x); bi < len(s.blocks); bi++ {
		b := s.blocks[bi]
		for i := s.lowerBound(b, x); i < len(b); i++ {
			if b[i] == x {
				s.removeAt(bi, i)
				return
			}
			if s.less(x, b[i]) {
				return // past every entry with x's key: not present
			}
		}
	}
}

// removeAt deletes entry i of block bi, then frees the block if it
// emptied or folds it into a neighbour if the pair fits in half a block.
func (s *blockList[T]) removeAt(bi, i int) {
	b := s.blocks[bi]
	copy(b[i:], b[i+1:])
	var zero T
	b[len(b)-1] = zero
	b = b[:len(b)-1]
	s.blocks[bi] = b
	s.n--
	if len(b) == 0 {
		s.recycle(b)
		s.blocks = slices.Delete(s.blocks, bi, bi+1)
		return
	}
	if bi+1 < len(s.blocks) && len(b)+len(s.blocks[bi+1]) <= blockMax/2 {
		s.mergeNext(bi)
	}
	if bi > 0 && len(s.blocks[bi-1])+len(s.blocks[bi]) <= blockMax/2 {
		s.mergeNext(bi - 1)
	}
}

// mergeNext folds block i+1 into block i.
func (s *blockList[T]) mergeNext(i int) {
	next := s.blocks[i+1]
	s.blocks[i] = append(s.blocks[i], next...)
	s.recycle(next)
	s.blocks = slices.Delete(s.blocks, i+1, i+2)
}

// freeInsertHook, when non-nil, observes every free-set insertion. Tests
// set it to prove that schedule()'s live walk (jt.walking) never sees
// one, which is what lets the walk stand in for a snapshot.
var freeInsertHook func(jt *JobTracker, tr *TaskTracker)

// freeKey returns a tracker's key in the free-slot sets: its cached
// pressure under CapacityAware (the stable-sort order the old code
// produced each call), 0 otherwise (the fixed heartbeat order of vanilla
// Hadoop), then its registration index.
func (jt *JobTracker) freeKey(tr *TaskTracker) freeKey {
	k := freeKey{idx: int32(tr.idx)}
	if jt.cfg.CapacityAware {
		k.pressure = tr.pressure
	}
	return k
}

// freeTracker returns the tracker with a free-set id, or nil for -1.
func (jt *JobTracker) freeTracker(id int32) *TaskTracker {
	if id < 0 {
		return nil
	}
	return jt.trackers[id]
}

// insertFree adds a tracker to one of the free-slot sets.
func (jt *JobTracker) insertFree(s *freeSet, tr *TaskTracker) {
	if freeInsertHook != nil {
		freeInsertHook(jt, tr)
	}
	s.insert(jt.freeKey(tr))
}

// syncFree reconciles a tracker's free-slot set memberships with its
// slot counters; launch and releaseSlot call it after every change.
func (jt *JobTracker) syncFree(tr *TaskTracker) {
	if freeM := tr.mapRunning < jt.cfg.MapSlots; freeM != tr.inFreeMaps {
		if freeM {
			jt.insertFree(&jt.freeMaps, tr)
		} else {
			jt.freeMaps.remove(jt.freeKey(tr))
		}
		tr.inFreeMaps = freeM
	}
	if freeR := tr.redsRunning < jt.cfg.ReduceSlots; freeR != tr.inFreeReds {
		if freeR {
			jt.insertFree(&jt.freeReds, tr)
		} else {
			jt.freeReds.remove(jt.freeKey(tr))
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
// free-slot sets ordered: a tracker whose pressure moved leaves its old
// level and joins the new one.
func (jt *JobTracker) refreshPressure(tr *TaskTracker) {
	old := jt.freeKey(tr)
	jt.probePressure(tr)
	if tr.pressure == old.pressure {
		return
	}
	if tr.inFreeMaps {
		jt.freeMaps.remove(old)
		jt.insertFree(&jt.freeMaps, tr)
	}
	if tr.inFreeReds {
		jt.freeReds.remove(old)
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
// list and its node bucket, before any attempt with an equal name.
func (jt *JobTracker) runningInsert(a *Attempt) {
	jt.running.insert(a)

	name := a.consumer.Name
	b := a.Tracker.bucket
	if b == nil {
		b = jt.bucketFor(a.Tracker.Compute)
		a.Tracker.bucket = b
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
	jt.running.remove(a)
	if b := a.Tracker.bucket; b != nil {
		name := a.consumer.Name
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

// bucketFor returns a compute node's running-attempt bucket, registering
// it in node-name order the first time the node runs an attempt.
func (jt *JobTracker) bucketFor(node cluster.Node) *nodeBucket {
	if b, ok := jt.buckets[node]; ok {
		return b
	}
	b := &nodeBucket{node: node, name: node.Name()}
	jt.buckets[node] = b
	j := sort.Search(len(jt.bucketOrder), func(j int) bool {
		return jt.bucketOrder[j].name >= b.name
	})
	jt.bucketOrder = slices.Insert(jt.bucketOrder, j, b)
	return b
}

// RunningCount returns the number of attempts currently executing,
// without materializing the list.
func (jt *JobTracker) RunningCount() int { return jt.running.len() }

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
	if b := tr.bucket; b != nil {
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
// per-job pending and running counters, the gate-aware schedulable
// totals that let schedule() prove "no assignable work" in O(1), and the
// pending-job lists.
func (jt *JobTracker) setTaskState(t *Task, s TaskState) {
	old := t.state
	if old == s {
		return
	}
	t.state = s
	job := t.Job
	if old == TaskRunning {
		job.running--
	}
	if s == TaskRunning {
		job.running++
	}
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
	} else {
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
	jt.syncPending(job, t.Kind)
}

// setJobState moves a job between phases, shifting its pending tasks'
// contribution between the schedulable totals as the phase gates open and
// close (maps schedule only in JobMapPhase, reduces only in
// JobReducePhase — the same gates pendingTask and hasPending enforce),
// and its membership of the pending-job lists with them.
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
	jt.syncPending(job, MapTask)
	jt.syncPending(job, ReduceTask)
}

// syncPending reconciles a job's membership of the kind's pending-job
// list with hasPending; Submit, setTaskState and setJobState call it
// after every change to the job's phase or pending counters.
func (jt *JobTracker) syncPending(job *Job, kind TaskKind) {
	k := kind - MapTask
	if has := job.hasPending(kind); has != job.inPending[k] {
		if has {
			jt.pending[k] = insertJob(jt.pending[k], job)
		} else {
			jt.pending[k] = removeJob(jt.pending[k], job)
		}
		job.inPending[k] = has
	}
}

// insertJob adds a job to a submission-ordered job list.
func insertJob(list []*Job, job *Job) []*Job {
	i, _ := slices.BinarySearchFunc(list, job.ID, func(j *Job, id int) int { return j.ID - id })
	return slices.Insert(list, i, job)
}

// removeJob deletes a job from a submission-ordered job list.
func removeJob(list []*Job, job *Job) []*Job {
	if i, ok := slices.BinarySearchFunc(list, job.ID, func(j *Job, id int) int { return j.ID - id }); ok {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// pendingJobs returns the active jobs with schedulable tasks of the
// kind — the jobs for which hasPending(kind) holds — in submission order.
// It is the list every built-in scheduler walks: pendingTask returns a
// task for exactly these jobs, so skipping the rest changes no choice.
func (jt *JobTracker) pendingJobs(kind TaskKind) []*Job { return jt.pending[kind-MapTask] }

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
