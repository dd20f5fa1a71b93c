package mapred

import (
	"fmt"
	"math"
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
	checkBlocks(t, step, s, len(model))
}

// checkBlocks verifies a block list's structure: n entries, no empty or
// oversized block, adjacent pairs above half a block.
func checkBlocks[T comparable](t *testing.T, step int, s *blockList[T], n int) {
	t.Helper()
	if s.len() != n {
		t.Fatalf("step %d: len = %d, want %d", step, s.len(), n)
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

// appendTo appends every member's id to dst in key order.
func (s *freeSet) appendTo(dst []int32) []int32 {
	for _, b := range s.levels.blocks {
		for i := range b {
			lv := &b[i]
			for id := s.least(lv); id >= 0; id = s.next(lv, id) {
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// freeSetModel is the reference a free set must match: its members'
// keys in (pressure, idx) order, and by id, each member's key.
type freeSetModel struct {
	sorted []freeKey
	key    []freeKey
	in     []bool
}

func newFreeSetModel(trackers int) *freeSetModel {
	return &freeSetModel{key: make([]freeKey, trackers), in: make([]bool, trackers)}
}

func (m *freeSetModel) insert(k freeKey) {
	i, _ := slices.BinarySearchFunc(m.sorted, k, cmpFreeKey)
	m.sorted = slices.Insert(m.sorted, i, k)
	m.key[k.idx], m.in[k.idx] = k, true
}

func (m *freeSetModel) remove(idx int32) freeKey {
	k := m.key[idx]
	i, _ := slices.BinarySearchFunc(m.sorted, k, cmpFreeKey)
	m.sorted = slices.Delete(m.sorted, i, i+1)
	m.in[idx] = false
	return k
}

// after returns the first member ordering strictly after k, or -1.
func (m *freeSetModel) after(k freeKey) int32 {
	i := sort.Search(len(m.sorted), func(i int) bool { return k.less(m.sorted[i]) })
	if i == len(m.sorted) {
		return -1
	}
	return m.sorted[i].idx
}

func cmpFreeKey(a, b freeKey) int {
	switch {
	case a.less(b):
		return -1
	case b.less(a):
		return 1
	}
	return 0
}

// checkFreeSet verifies a free set against its model: the flattened set
// and a whole first/after walk equal the sorted model, and every level
// is well formed — pressures strictly increasing, counts matching the
// members held, and each container on the right side of the switch
// (ids hold at most size/32 members, a bitset at least size/64).
func checkFreeSet(t *testing.T, step int, s *freeSet, m *freeSetModel) {
	t.Helper()
	want := make([]int32, len(m.sorted))
	for i, k := range m.sorted {
		want[i] = k.idx
	}
	if got := s.appendTo(nil); !slices.Equal(got, want) {
		t.Fatalf("step %d: flattened set differs from the sorted model (%d vs %d members)", step, len(got), len(want))
	}
	var walked []int32
	for id := s.first(); id >= 0; id = s.after(m.key[id]) {
		walked = append(walked, id)
	}
	if !slices.Equal(walked, want) {
		t.Fatalf("step %d: first/after walk differs from the sorted model (%d vs %d members)", step, len(walked), len(want))
	}
	if s.n != len(want) {
		t.Fatalf("step %d: n = %d, want %d", step, s.n, len(want))
	}
	prev, total, levels := math.Inf(-1), 0, 0
	for _, b := range s.levels.blocks {
		levels += len(b)
		for i := range b {
			lv := &b[i]
			if lv.pressure <= prev {
				t.Fatalf("step %d: level %v after level %v", step, lv.pressure, prev)
			}
			prev = lv.pressure
			held := 0
			for id := s.least(lv); id >= 0; id = s.next(lv, id) {
				if m.key[id].pressure != lv.pressure {
					t.Fatalf("step %d: tracker %d in level %v, model says %v", step, id, lv.pressure, m.key[id].pressure)
				}
				held++
			}
			if held != int(lv.n) || held == 0 {
				t.Fatalf("step %d: level %v counts %d members, holds %d", step, lv.pressure, lv.n, held)
			}
			total += held
			if lv.n == 1 {
				continue
			}
			cs := &s.conts[lv.c]
			if !cs.big && int(lv.n) > s.size/32 {
				t.Fatalf("step %d: %d members in ids past the switch at %d", step, lv.n, s.size/32)
			}
			if cs.big && int(lv.n) < s.size/64 {
				t.Fatalf("step %d: %d members in a bitset below %d", step, lv.n, s.size/64)
			}
		}
	}
	if total != len(want) {
		t.Fatalf("step %d: levels hold %d members, want %d", step, total, len(want))
	}
	checkBlocks(t, step, &s.levels, levels)
	// Every container not holding a level's bits keeps them zero, and
	// held is the capacity of them all.
	held := 0
	for c := range s.conts {
		cs := &s.conts[c]
		held += cs.bytes()
		if !cs.big && slices.ContainsFunc(cs.bits[:cap(cs.bits)], func(w uint64) bool { return w != 0 }) {
			t.Fatalf("step %d: container %d keeps stray bits", step, c)
		}
	}
	if held != s.held {
		t.Fatalf("step %d: containers hold %d bytes, the set counts %d", step, held, s.held)
	}
}

// TestFreeSetMatchesSortedModel drives a free set through seeded random
// inserts, removes and re-keys (remove under the old key, insert under
// the new — what refreshPressure does), in phases that fill the set and
// drain it, over the pressure shapes the set must handle:
//
//   - scaleup: four levels with thousands of ties, most trackers at the
//     largest, as in a 10,000-PM run: every tracker starts free and the
//     set churns near full;
//   - distinct: every tracker at its own pressure;
//   - switch: a few levels whose populations swing across the
//     ids↔bitset switch in both directions;
//   - vanilla: the single level of the capacity-blind order, starting
//     full.
//
// After every step the set must equal a sorted (pressure, idx) model,
// walked whole by first/after, and after from a random key — a member,
// a removed tracker's key or a key at a pressure no level holds — must
// return the model's first member past it.
func TestFreeSetMatchesSortedModel(t *testing.T) {
	shapes := []struct {
		name     string
		trackers int
		steps    int
		phase    int
		prefill  bool
		pressure func(rng *rand.Rand) float64
	}{
		{"scaleup", 2500, 3000, 3000, true, func(rng *rand.Rand) float64 {
			if rng.Intn(4) > 0 {
				return 0.75
			}
			return float64(rng.Intn(3)) * 0.25
		}},
		{"distinct", 2000, 3000, 600, false, func(rng *rand.Rand) float64 { return rng.Float64() }},
		{"switch", 1280, 12000, 300, false, func(rng *rand.Rand) float64 { return float64(rng.Intn(3)) }},
		{"vanilla", 400, 3000, 600, true, func(*rand.Rand) float64 { return 0 }},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			var s freeSet
			m := newFreeSetModel(sh.trackers)
			pressure := make([]float64, sh.trackers)
			for i := range pressure {
				pressure[i] = sh.pressure(rng)
				if sh.prefill {
					k := freeKey{pressure[i], int32(i)}
					s.insert(k)
					m.insert(k)
				}
			}
			toBits, toIDs, drains, peak, maxBlocks := 0, 0, 0, 0, 0
			for step := 0; step < sh.steps; step++ {
				// Alternate filling and draining phases so the population
				// sweeps from empty to full and back.
				fillBias := 0.85
				if (step/sh.phase)%2 == 1 {
					fillBias = 0.1
				}
				bitsBefore := s.bitsets()
				id := int32(rng.Intn(sh.trackers))
				in := m.in[id]
				switch r := rng.Float64(); {
				case r < 0.2: // re-key
					pressure[id] = sh.pressure(rng)
					if in {
						s.remove(m.remove(id))
						k := freeKey{pressure[id], id}
						s.insert(k)
						m.insert(k)
					}
				case r < 0.2+0.8*fillBias:
					if !in {
						k := freeKey{pressure[id], id}
						s.insert(k)
						m.insert(k)
					}
				default:
					if len(m.sorted) > 0 {
						id = m.sorted[rng.Intn(len(m.sorted))].idx
						s.remove(m.remove(id))
						if len(m.sorted) == 0 {
							drains++
						}
					}
				}
				switch after := s.bitsets(); {
				case after > bitsBefore:
					toBits++
				case after < bitsBefore:
					toIDs++
				}
				peak = max(peak, len(m.sorted))
				maxBlocks = max(maxBlocks, len(s.levels.blocks))
				checkFreeSet(t, step, &s, m)
				probe := freeKey{pressure[rng.Intn(sh.trackers)], int32(rng.Intn(sh.trackers))}
				if rng.Intn(4) == 0 {
					probe.pressure = float64(rng.Intn(5))*0.25 - 0.125 // between levels
				}
				if got, want := s.after(probe), m.after(probe); got != want {
					t.Fatalf("step %d: after(%v) = %d, want %d", step, probe, got, want)
				}
			}
			t.Logf("%d conversions to bitsets, %d back to ids, %d drains, peak %d members, %d level blocks",
				toBits, toIDs, drains, peak, maxBlocks)
			if (!sh.prefill && drains == 0) || (sh.name == "switch" && (toBits < 20 || toIDs < 20)) ||
				(sh.name == "distinct" && maxBlocks < 3) {
				t.Errorf("sequence too tame (%d conversions to bitsets, %d back, %d drains, peak %d members, %d level blocks)",
					toBits, toIDs, drains, peak, maxBlocks)
			}
		})
	}
}

// bitsets counts the levels held as bitsets.
func (s *freeSet) bitsets() int {
	n := 0
	for _, b := range s.levels.blocks {
		for _, lv := range b {
			if lv.n > 1 && s.conts[lv.c].big {
				n++
			}
		}
	}
	return n
}

// TestFreeSetMemoryBounded fills a 15,000-tracker free set in random
// order, with every tracker at its own pressure and with four levels,
// and checks the set keeps at most 16 bytes of containers per tracker —
// no level gets a fleet-sized bitset it does not fill — and at most 48
// bytes in all, level list included.
func TestFreeSetMemoryBounded(t *testing.T) {
	const trackers = 15000
	for _, shape := range []struct {
		name     string
		pressure func(rng *rand.Rand) float64
	}{
		{"distinct", func(rng *rand.Rand) float64 { return rng.Float64() }},
		{"four levels", func(rng *rand.Rand) float64 { return float64(rng.Intn(4)) }},
	} {
		rng := rand.New(rand.NewSource(5))
		var s freeSet
		for _, id := range rng.Perm(trackers) {
			s.insert(freeKey{shape.pressure(rng), int32(id)})
		}
		levels := 0
		for _, b := range s.levels.blocks {
			levels += 16 * cap(b)
		}
		for _, b := range s.levels.spare {
			levels += 16 * cap(b)
		}
		c := s.held
		t.Logf("%s: %.2f B/tracker in containers, %.2f B/tracker in level entries",
			shape.name, float64(c)/trackers, float64(levels)/trackers)
		if c > 16*trackers {
			t.Errorf("%s: containers hold %d bytes, %.1f per tracker, want at most 16", shape.name, c, float64(c)/trackers)
		}
		if c+levels > 48*trackers {
			t.Errorf("%s: the set holds %d bytes, %.1f per tracker, want at most 48", shape.name, c+levels, float64(c+levels)/trackers)
		}
	}
}

// TestFreeSetGivesBackCapacity builds the history that would make kept
// capacity grow without bound: level after level swells past the
// ids↔bitset switch with a thousand floating trackers, then shrinks back
// to two pinned members and stays. Each such level once held a bitset
// and a grown id slice; the set must give those back once it holds more
// than retainBytes, and still match its model.
func TestFreeSetGivesBackCapacity(t *testing.T) {
	const trackers, floating, rounds = 2048, 1000, 400
	var s freeSet
	m := newFreeSetModel(trackers)
	for r := 0; r < rounds; r++ {
		p := float64(r)
		for id := int32(0); id < floating; id++ {
			k := freeKey{p, id}
			s.insert(k)
			m.insert(k)
		}
		for _, id := range []int32{floating + 2*int32(r), floating + 2*int32(r) + 1} {
			k := freeKey{p, id}
			s.insert(k)
			m.insert(k)
		}
		for id := int32(0); id < floating; id++ {
			s.remove(m.remove(id))
		}
	}
	checkFreeSet(t, rounds, &s, m)
	// Kept whole, every level would hold a 256-byte bitset and a grown
	// id slice.
	if limit := 2 * s.retainBytes(); s.held > limit {
		t.Fatalf("containers hold %d bytes after %d swollen levels, want at most %d", s.held, rounds, limit)
	}
	t.Logf("%d bytes held, %d allowed before giving back", s.held, s.retainBytes())
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
