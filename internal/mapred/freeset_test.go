package mapred

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/resource"
)

// checkFreeSet verifies a free set against its reference: the flattened
// blocks equal the sorted model, and the block structure keeps its
// bounds (no empty or oversized block, adjacent pairs above half a
// block).
func checkFreeSet(t *testing.T, step int, s *freeSet, model []*TaskTracker) {
	t.Helper()
	if got := s.appendTo(nil); !slices.Equal(got, model) {
		t.Fatalf("step %d: flattened set differs from the sorted model (%d vs %d entries)", step, len(got), len(model))
	}
	if s.n != len(model) {
		t.Fatalf("step %d: n = %d, want %d", step, s.n, len(model))
	}
	for i, b := range s.blocks {
		if len(b) == 0 || len(b) > freeBlockMax {
			t.Fatalf("step %d: block %d holds %d entries", step, i, len(b))
		}
		if i > 0 && len(s.blocks[i-1])+len(b) <= freeBlockMax/2 {
			t.Fatalf("step %d: blocks %d and %d hold %d entries together, should have merged",
				step, i-1, i, len(s.blocks[i-1])+len(b))
		}
	}
}

// TestFreeSetMatchesSortedModel drives a free set through a seeded
// random sequence of inserts, removes and pressure refreshes (remove,
// re-key, reinsert — what refreshPressure does) while the population
// swings between empty and several blocks' worth, so splits, merges,
// complete drains and refills all happen. After every step the set must
// equal a plain sorted slice maintained alongside it.
func TestFreeSetMatchesSortedModel(t *testing.T) {
	for _, byPressure := range []bool{true, false} {
		rng := rand.New(rand.NewSource(17))
		trackers := make([]*TaskTracker, 5*freeBlockMax)
		for i := range trackers {
			// Few distinct pressures: ties fall back to the index.
			trackers[i] = &TaskTracker{idx: i, pressure: float64(rng.Intn(6))}
		}
		s := freeSet{byPressure: byPressure}
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
	_, jt := rig(t, 3*freeBlockMax+40, Config{CapacityAware: true}, rec)
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
