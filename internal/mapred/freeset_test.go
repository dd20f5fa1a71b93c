package mapred

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/resource"
)

// checkBlockList verifies a block list against its reference: the
// flattened blocks and an each walk equal the sorted model, and the
// block structure keeps its bounds (no empty or oversized block,
// adjacent pairs above half a block).
func checkBlockList[T comparable](t *testing.T, step int, s *blockList[T], model []T) {
	t.Helper()
	if got := s.appendTo(nil); !slices.Equal(got, model) {
		t.Fatalf("step %d: flattened list differs from the sorted model (%d vs %d entries)", step, len(got), len(model))
	}
	var walked []T
	s.each(func(x T) { walked = append(walked, x) })
	if !slices.Equal(walked, model) {
		t.Fatalf("step %d: each walk differs from the sorted model (%d vs %d entries)", step, len(walked), len(model))
	}
	if s.len() != len(model) {
		t.Fatalf("step %d: len = %d, want %d", step, s.len(), len(model))
	}
	for i, b := range s.blocks {
		if len(b) == 0 || len(b) > blockMax {
			t.Fatalf("step %d: block %d holds %d entries", step, i, len(b))
		}
		if i > 0 && len(s.blocks[i-1])+len(b) <= blockMax/2 {
			t.Fatalf("step %d: blocks %d and %d hold %d entries together, should have merged",
				step, i-1, i, len(s.blocks[i-1])+len(b))
		}
	}
}

// checkFreeSet is checkBlockList for a free set, plus its first/after
// walk, which relies on unique keys.
func checkFreeSet(t *testing.T, step int, s *freeSet, model []*TaskTracker) {
	t.Helper()
	checkBlockList(t, step, s, model)
	var walked []*TaskTracker
	for tr := s.first(); tr != nil; tr = s.after(tr) {
		walked = append(walked, tr)
	}
	if !slices.Equal(walked, model) {
		t.Fatalf("step %d: first/after walk differs from the sorted model (%d vs %d entries)", step, len(walked), len(model))
	}
}

// TestFreeSetMatchesSortedModel drives a free set through a seeded
// random sequence of inserts, removes and pressure refreshes (remove,
// re-key, reinsert — what refreshPressure does) while the population
// swings between empty and several blocks' worth, so splits, merges,
// complete drains and refills all happen. After every step the set must
// equal a plain sorted slice maintained alongside it, walked whole by
// first/after and probed by after from a random key.
func TestFreeSetMatchesSortedModel(t *testing.T) {
	for _, byPressure := range []bool{true, false} {
		rng := rand.New(rand.NewSource(17))
		trackers := make([]*TaskTracker, 5*blockMax)
		for i := range trackers {
			// Few distinct pressures: ties fall back to the index.
			trackers[i] = &TaskTracker{idx: i, pressure: float64(rng.Intn(6))}
		}
		s := newFreeSet(byPressure)
		var model []*TaskTracker
		in := make([]bool, len(trackers))
		less := func(a, b *TaskTracker) bool { return freeOrder(byPressure, a, b) }
		modelInsert := func(tr *TaskTracker) {
			i := sort.Search(len(model), func(i int) bool { return less(tr, model[i]) })
			model = slices.Insert(model, i, tr)
		}
		modelRemove := func(tr *TaskTracker) {
			model = slices.Delete(model, slices.Index(model, tr), slices.Index(model, tr)+1)
		}

		maxBlocks, merges, drains := 0, 0, 0
		for step := 0; step < 30000; step++ {
			// Alternate filling and draining phases so the population
			// sweeps from empty to full and back.
			fillBias := 0.85
			if (step/3000)%2 == 1 {
				fillBias = 0.1
			}
			tr := trackers[rng.Intn(len(trackers))]
			blocksBefore := len(s.blocks)
			switch r := rng.Float64(); {
			case r < 0.2: // pressure refresh
				if in[tr.idx] {
					s.remove(tr)
					modelRemove(tr)
				}
				tr.pressure = float64(rng.Intn(6))
				if in[tr.idx] {
					s.insert(tr)
					modelInsert(tr)
				}
			case r < 0.2+0.8*fillBias:
				if !in[tr.idx] {
					s.insert(tr)
					modelInsert(tr)
					in[tr.idx] = true
				}
			default:
				if len(model) > 0 {
					tr = model[rng.Intn(len(model))]
				}
				if in[tr.idx] {
					s.remove(tr)
					modelRemove(tr)
					in[tr.idx] = false
					if len(model) == 0 {
						drains++
					}
				}
			}
			checkFreeSet(t, step, &s, model)
			// after from any key, member or not, with whatever hint the
			// last call left: the first model entry ordering after it.
			probe := trackers[rng.Intn(len(trackers))]
			var want *TaskTracker
			if i := sort.Search(len(model), func(i int) bool { return less(probe, model[i]) }); i < len(model) {
				want = model[i]
			}
			if got := s.after(probe); got != want {
				t.Fatalf("step %d: after(%d) is not the first entry past its key", step, probe.idx)
			}
			maxBlocks = max(maxBlocks, len(s.blocks))
			if len(s.blocks) < blocksBefore && len(model) > 0 {
				merges++
			}
		}
		if maxBlocks < 3 || merges == 0 || drains == 0 {
			t.Errorf("byPressure=%v: sequence too tame (max %d blocks, %d merges, %d drains)",
				byPressure, maxBlocks, merges, drains)
		}
	}
}

// oldRunningInsert and oldRunningRemove are the running list as a plain
// name-sorted slice, before it became a block list: an attempt goes in
// before every attempt with an equal name, and comes out by identity.
func oldRunningInsert(list []*Attempt, a *Attempt) []*Attempt {
	name := a.consumer.Name
	i := sort.Search(len(list), func(i int) bool { return list[i].consumer.Name >= name })
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = a
	return list
}

func oldRunningRemove(list []*Attempt, a *Attempt) []*Attempt {
	name := a.consumer.Name
	i := sort.Search(len(list), func(i int) bool { return list[i].consumer.Name >= name })
	for i < len(list) && list[i] != a {
		i++
	}
	if i < len(list) {
		list = append(list[:i], list[i+1:]...)
	}
	return list
}

// TestRunningListMatchesOldSortedSlice drives the running list through
// seeded launches and ends of attempts drawn from few names, so runs of
// equal names span blocks, while the population swings between empty
// and several blocks' worth. After every step it must equal the old
// sorted slice, ties included: a new attempt ahead of its equal-named
// elders, and a removal taking the very attempt asked for.
func TestRunningListMatchesOldSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	attempts := make([]*Attempt, 6*blockMax)
	for i := range attempts {
		// Few names: about 20 attempts share each one.
		name := fmt.Sprintf("Sort-%d/map-0@pm-%d", rng.Intn(4), rng.Intn(10))
		attempts[i] = &Attempt{consumer: &attemptConsumer{Consumer: cluster.Consumer{Name: name}}}
	}
	s := newBlockList(runningLess)
	var model []*Attempt
	in := make(map[*Attempt]bool)
	spanning := 0
	for step := 0; step < 30000; step++ {
		fillBias := 0.85
		if (step/4000)%2 == 1 {
			fillBias = 0.1
		}
		if rng.Float64() < fillBias {
			if a := attempts[rng.Intn(len(attempts))]; !in[a] {
				s.insert(a)
				model = oldRunningInsert(model, a)
				in[a] = true
			}
		} else if len(model) > 0 {
			a := model[rng.Intn(len(model))]
			s.remove(a)
			model = oldRunningRemove(model, a)
			in[a] = false
		}
		checkBlockList(t, step, &s, model)
		for i := 1; i < len(s.blocks); i++ {
			if s.blocks[i-1][len(s.blocks[i-1])-1].consumer.Name == s.blocks[i][0].consumer.Name {
				spanning++
				break
			}
		}
	}
	if spanning < 1000 {
		t.Fatalf("only %d steps had a run of equal names spanning two blocks; the ties are too tame", spanning)
	}
}

// visitRecorder is a Scheduler that assigns nothing and records the
// (tracker, kind) probes schedule() makes, in order.
type visitRecorder struct{ visits []visit }

type visit struct {
	tr   *TaskTracker
	kind TaskKind
}

func (*visitRecorder) Name() string { return "visit-recorder" }

func (r *visitRecorder) NextTask(_ *JobTracker, tr *TaskTracker, kind TaskKind) *Task {
	r.visits = append(r.visits, visit{tr, kind})
	return nil
}

// TestScheduleWalksFreeSetsInFreshSortOrder checks schedule() end to
// end on a multi-block fleet: after random slot churn and load changes
// on the machines (which dirty them, so schedule's entry flush re-keys
// the affected trackers), one round must probe exactly the trackers a
// fresh stable sort of the whole fleet by (pressure, index) yields,
// visiting a tracker free for both kinds once, map kind first.
func TestScheduleWalksFreeSetsInFreshSortOrder(t *testing.T) {
	rec := &visitRecorder{}
	_, jt := rig(t, 3*blockMax+40, Config{CapacityAware: true}, rec)
	trackers := jt.Trackers()
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 25; round++ {
		for i := 0; i < 60; i++ {
			tr := trackers[rng.Intn(len(trackers))]
			tr.mapRunning = rng.Intn(jt.cfg.MapSlots + 1)
			tr.redsRunning = rng.Intn(jt.cfg.ReduceSlots + 1)
			jt.syncFree(tr)
		}
		for i := 0; i < 30; i++ {
			pm := trackers[rng.Intn(len(trackers))].Compute.(*cluster.PM)
			if cs := pm.Consumers(); len(cs) > 0 && rng.Intn(2) == 0 {
				cs[0].Stop()
				continue
			}
			if err := pm.Start(&cluster.Consumer{
				Name:   "load",
				Demand: resource.NewVector(float64(rng.Intn(3))*0.5, 0, 0, 0),
				Work:   cluster.OpenEnded,
			}); err != nil {
				t.Fatal(err)
			}
		}

		want := slices.Clone(trackers)
		sort.SliceStable(want, func(i, j int) bool {
			pi, pj := trackerPressure(want[i]), trackerPressure(want[j])
			if pi != pj {
				return pi < pj
			}
			return want[i].idx < want[j].idx
		})
		var wantVisits []visit
		for _, tr := range want {
			if tr.mapRunning < jt.cfg.MapSlots {
				wantVisits = append(wantVisits, visit{tr, MapTask})
			}
			if tr.redsRunning < jt.cfg.ReduceSlots {
				wantVisits = append(wantVisits, visit{tr, ReduceTask})
			}
		}

		// Open both phase gates for one round; the recorder assigns
		// nothing, so the round ends after a single walk.
		rec.visits = rec.visits[:0]
		jt.schedulableMaps, jt.schedulableReds = 1, 1
		jt.schedule()
		jt.schedulableMaps, jt.schedulableReds = 0, 0
		if !slices.Equal(rec.visits, wantVisits) {
			t.Fatalf("round %d: schedule probed %d (tracker, kind) pairs, want %d in fresh sort order",
				round, len(rec.visits), len(wantVisits))
		}
	}
}
