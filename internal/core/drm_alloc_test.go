package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/mapred"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// TestDRMObserveDoesNotAllocate pins the estimator lookup: keying by
// job name and task kind instead of a formatted string makes a sweep's
// observe pass allocation-free. Each estimator's bounded sample window
// regrows once per few hundred samples, which amortizes to zero.
func TestDRMObserveDoesNotAllocate(t *testing.T) {
	rig := virtualRig(t, 4)
	drm := NewDRM(rig.Engine, rig.JT, AllModes(), 5*time.Second)
	if _, err := rig.JT.Submit(workload.Sort().WithInputMB(2048), nil); err != nil {
		t.Fatal(err)
	}
	rig.Engine.RunUntil(30 * time.Second)
	attempts := rig.JT.RunningAttempts()
	if len(attempts) == 0 {
		t.Fatal("no attempts running")
	}
	for i := 0; i < 1000; i++ {
		drm.observe(attempts) // fill every estimator's sample window
	}
	if allocs := testing.AllocsPerRun(100, func() { drm.observe(attempts) }); allocs != 0 {
		t.Fatalf("observe over %d attempts: %v allocs/op, want 0", len(attempts), allocs)
	}
}

// TestDRMSortsMatchSortSlice backs the claim that swapping sort.Slice
// for slices.SortFunc keeps every DRM decision: both run the same
// pdqsort making the same comparisons, so inputs full of ties come out
// in the same order. Deficits are drawn from a handful of benefit values
// at sizes on both sides of the insertion-sort cutoff; attempts mix
// running ones at various progress with zero-progress ones.
func TestDRMSortsMatchSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		in := make([]rateDeficit, 1+rng.Intn(200))
		for i := range in {
			in[i] = rateDeficit{demand: float64(i), benefit: float64(rng.Intn(4))}
			if rng.Intn(5) == 0 {
				in[i].benefit = rng.Float64()
			}
		}
		want := slices.Clone(in)
		sort.Slice(want, func(i, j int) bool { return want[i].benefit > want[j].benefit })
		got := slices.Clone(in)
		slices.SortFunc(got, byBenefitDesc)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: deficit order differs from sort.Slice (n=%d)", trial, len(in))
		}
	}

	rig := virtualRig(t, 8)
	if _, err := rig.JT.Submit(workload.Sort().WithInputMB(4096), nil); err != nil {
		t.Fatal(err)
	}
	rig.Engine.RunUntil(40 * time.Second)
	running := rig.JT.RunningAttempts()
	if len(running) < 13 {
		t.Fatalf("only %d attempts running; the comparison would not reach pdqsort", len(running))
	}
	for trial := 0; trial < 50; trial++ {
		in := slices.Clone(running)
		for i := rng.Intn(20); i > 0; i-- {
			in = append(in, &mapred.Attempt{}) // progress 0: ties
		}
		rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
		want := slices.Clone(in)
		sort.Slice(want, func(i, j int) bool { return want[i].Progress() > want[j].Progress() })
		got := slices.Clone(in)
		slices.SortFunc(got, byProgressDesc)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: attempt order differs from sort.Slice", trial)
		}
	}
}

// drmTickRig returns a DRM over a virtual cluster part-way through a
// Sort job, warmed until its caps have settled.
func drmTickRig(tb testing.TB, pms int) *DRM {
	tb.Helper()
	rig, err := testbed.New(testbed.Options{
		PMs:          pms,
		VMsPerPM:     2,
		Seed:         11,
		MapredConfig: mapred.Config{SlotCaps: mapred.DefaultSlotCaps()},
	})
	if err != nil {
		tb.Fatal(err)
	}
	drm := NewDRM(rig.Engine, rig.JT, AllModes(), 5*time.Second)
	if _, err := rig.JT.Submit(workload.Sort().WithInputMB(float64(512*pms)), nil); err != nil {
		tb.Fatal(err)
	}
	rig.Engine.RunUntil(30 * time.Second)
	if rig.JT.RunningCount() == 0 {
		tb.Fatal("no attempts running")
	}
	for i := 0; i < 1000; i++ {
		drm.tick()
	}
	return drm
}

// TestDRMTickZeroAlloc pins a steady-state epoch with auditing off:
// the balancers reuse the DRM's scratch, and cap changes reuse the
// engine's event freelist.
func TestDRMTickZeroAlloc(t *testing.T) {
	drm := drmTickRig(t, 4)
	if allocs := testing.AllocsPerRun(100, drm.tick); allocs != 0 {
		t.Fatalf("DRM tick allocates %.1f times, want 0", allocs)
	}
}
