package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/testbed"
	"repro/internal/workload"
)

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
// Sort job, recording into sinks (nil records nothing), warmed until
// its caps have settled.
func drmTickRig(tb testing.TB, pms int, sinks *obs.Sinks) *DRM {
	tb.Helper()
	rig, err := testbed.New(testbed.Options{
		PMs:          pms,
		VMsPerPM:     2,
		Seed:         11,
		MapredConfig: mapred.Config{SlotCaps: true},
	})
	if err != nil {
		tb.Fatal(err)
	}
	drm := NewDRM(rig.JT, AllModes(), nil, sinks)
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

// TestDRMTickZeroAlloc pins a steady-state epoch, with auditing off
// and into a wrapped audit log: the balancers reuse the DRM's scratch,
// cap changes reuse the engine's event freelist, and a cap-grant
// record's text and candidates are copied out of the DRM's buffers
// into the log's recycled chunks.
func TestDRMTickZeroAlloc(t *testing.T) {
	drm := drmTickRig(t, 4, nil)
	if allocs := testing.AllocsPerRun(100, drm.tick); allocs != 0 {
		t.Fatalf("DRM tick allocates %.1f times, want 0", allocs)
	}

	// Settled caps grant nothing, so each audited tick follows a
	// squeeze of one attempt's CPU cap, which the tick grants back.
	log := audit.New(16)
	drm = drmTickRig(t, 4, &obs.Sinks{Audit: log})
	c := drm.jt.RunningAttempts()[0].Consumer()
	squeezeAndTick := func() {
		c.SetCap(c.Cap.Set(resource.CPU, c.Demand.Get(resource.CPU)/2))
		drm.tick()
	}
	for i := 0; i < 2*16; i++ {
		squeezeAndTick()
	}
	if log.Dropped() == 0 {
		t.Fatalf("audit log holds %d records and has not wrapped", log.Len())
	}
	before := log.Dropped()
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, squeezeAndTick); allocs != 0 {
		t.Fatalf("audited DRM tick allocates %.1f times, want 0", allocs)
	}
	if got := log.Dropped() - before; got < runs {
		t.Fatalf("%d audited ticks recorded %d cap grants, want one each at least", runs, got)
	}
}

// TestCapGrantTextMatchesSprintf checks that the cap-grant record's
// strconv formatting gives the bytes of the fmt.Sprintf calls it
// replaced.
func TestCapGrantTextMatchesSprintf(t *testing.T) {
	var d DRM
	for _, headroom := range []float64{0, 1e-5, 0.0123, 999.5, 1e6, 1e21,
		math.Copysign(0, -1), -3.25, math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, kind := range []resource.Kind{resource.CPU, resource.DiskIO, resource.NetIO} {
			subject, decision, reason := d.capGrantText("vm-12", kind, 3, 17, headroom)
			want := [3]string{
				fmt.Sprintf("%s/%s", "vm-12", kind),
				fmt.Sprintf("raised %d of %d deficit cap(s)", 3, 17),
				fmt.Sprintf("%.3g %s headroom, most beneficial first", headroom, kind),
			}
			if got := [3]string{subject, decision, reason}; got != want {
				t.Errorf("headroom %v, %s: got %q, want %q", headroom, kind, got, want)
			}
		}
	}
}
